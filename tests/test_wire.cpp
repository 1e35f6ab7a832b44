// Tests for the service wire schema (service/json.hpp + service/wire.hpp).
//
// Contracts under test: the strict JSON parser (malformed input throws
// ServiceError with an offset, never crashes, never accepts duplicates
// or trailing garbage); spec round-trips are BIT-identical for all five
// analysis kinds with default values omitted from the encoding; unknown
// keys are rejected; results round-trip with bit-identical waveforms;
// CircuitSource canonicalization is noise-order invariant and drives
// distinct signatures for distinct fabrics.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <variant>
#include <vector>

#include "core/ref_circuits.hpp"
#include "core/sim_session.hpp"
#include "service/json.hpp"
#include "service/wire.hpp"
#include "util/error.hpp"

namespace nanosim {
namespace {

namespace json = service::json;
namespace wire = service::wire;

// ---- JSON parser ------------------------------------------------------

TEST(ServiceJson, ParsesScalarsAndNesting) {
    const json::Value v = json::parse(
        R"({"a":1.5,"b":[true,false,null],"c":{"d":"x\ny","e":-2e-3}})");
    EXPECT_DOUBLE_EQ(v.at("a").as_number(), 1.5);
    EXPECT_TRUE(v.at("b").as_array()[0].as_bool());
    EXPECT_TRUE(v.at("b").as_array()[2].is_null());
    EXPECT_EQ(v.at("c").at("d").as_string(), "x\ny");
    EXPECT_DOUBLE_EQ(v.at("c").at("e").as_number(), -2e-3);
}

TEST(ServiceJson, DumpParsesBackBitIdentically) {
    json::Value v{json::Object{}};
    v.set("pi", json::Value(3.141592653589793));
    v.set("tiny", json::Value(4.9406564584124654e-324));
    v.set("neg", json::Value(-1.0000000000000002));
    json::Array arr;
    arr.emplace_back(1e308);
    arr.emplace_back(-0.0);
    v.set("arr", json::Value(std::move(arr)));
    const json::Value back = json::parse(v.dump());
    EXPECT_EQ(back.at("pi").as_number(), 3.141592653589793);
    EXPECT_EQ(back.at("tiny").as_number(), 4.9406564584124654e-324);
    EXPECT_EQ(back.at("neg").as_number(), -1.0000000000000002);
    EXPECT_EQ(back.at("arr").as_array()[0].as_number(), 1e308);
    EXPECT_TRUE(std::signbit(back.at("arr").as_array()[1].as_number()));
    // Deterministic encoding: dumping the reparse reproduces the bytes.
    EXPECT_EQ(back.dump(), v.dump());
}

TEST(ServiceJson, RejectsMalformedDocuments) {
    EXPECT_THROW(json::parse(""), ServiceError);
    EXPECT_THROW(json::parse("{"), ServiceError);
    EXPECT_THROW(json::parse("{\"a\":1,}"), ServiceError);
    EXPECT_THROW(json::parse("{\"a\":1}x"), ServiceError);   // trailing
    EXPECT_THROW(json::parse("{\"a\":1,\"a\":2}"), ServiceError); // dup
    EXPECT_THROW(json::parse("[1,2"), ServiceError);
    EXPECT_THROW(json::parse("\"\\q\""), ServiceError); // bad escape
    EXPECT_THROW(json::parse("01"), ServiceError);      // leading zero
    EXPECT_THROW(json::parse("nul"), ServiceError);
    EXPECT_THROW(json::parse("NaN"), ServiceError);
    std::string deep;
    for (int i = 0; i < 100; ++i) {
        deep += "[";
    }
    EXPECT_THROW(json::parse(deep), ServiceError); // depth bound
}

TEST(ServiceJson, EveryTruncationErrorsCleanly) {
    // The fuzz contract: any prefix of a valid document must parse or
    // throw ServiceError — never crash, never hang.
    const std::string doc =
        R"({"kind":"mc","node":"n1_1","t_stop":1e-9,"runs":16,)"
        R"("probes":["a","b"],"seed":"18446744073709551615"})";
    for (std::size_t cut = 0; cut < doc.size(); ++cut) {
        const std::string prefix = doc.substr(0, cut);
        try {
            (void)json::parse(prefix);
        } catch (const ServiceError&) {
            continue; // expected for nearly every cut
        }
    }
    // A structurally-valid but incomplete spec parses (defaults refill);
    // the missing node/t_stop are a RUN-time validation error, so the
    // wire layer itself never rejects it.
    const auto mc = std::get<MonteCarloSpec>(
        wire::spec_from_json(json::parse(R"({"kind":"mc"})")));
    EXPECT_TRUE(mc.node.empty());
    EXPECT_EQ(mc.t_stop, 0.0);
}

// ---- spec round-trips -------------------------------------------------

/// Round-trip a spec and require the re-encoding to be byte-identical —
/// with to_chars double encoding this implies field-level bit identity.
void expect_spec_roundtrip(const AnalysisSpec& spec) {
    const json::Value encoded = wire::spec_to_json(spec);
    const AnalysisSpec back =
        wire::spec_from_json(json::parse(encoded.dump()));
    EXPECT_EQ(wire::spec_to_json(back).dump(), encoded.dump());
    EXPECT_EQ(back.index(), spec.index());
}

TEST(WireSpec, OpRoundTrip) {
    OpSpec op;
    op.name = "warm";
    op.engine = DcEngine::newton_raphson;
    op.common.abstol = 1e-9;
    op.common.deadline_s = 2.5;
    expect_spec_roundtrip(op);
}

TEST(WireSpec, DcSweepRoundTrip) {
    DcSweepSpec dc;
    dc.source = "V1";
    dc.start = -0.30000000000000004; // not exactly representable decimal
    dc.stop = 0.7;
    dc.step = 0.01;
    dc.engine = DcEngine::mla;
    expect_spec_roundtrip(dc);
}

TEST(WireSpec, TranRoundTrip) {
    TranSpec tran;
    tran.t_stop = 2e-9;
    tran.engine = TranEngine::pwl;
    tran.start_from_dc = false;
    tran.initial = {0.0, 0.55, -0.1};
    tran.eps = 0.02;
    tran.adaptive = false;
    tran.growth_limit = 1.5;
    tran.common.dt_init = 1e-12;
    tran.common.tabulate = true;
    expect_spec_roundtrip(tran);
}

TEST(WireSpec, MonteCarloRoundTrip) {
    MonteCarloSpec mc;
    mc.node = "n3_3";
    mc.t_stop = 5e-9;
    mc.runs = 32;
    mc.noise_dt = 2.5e-11;
    mc.grid_points = 101;
    mc.seed = 42;
    mc.threads = 4;
    mc.probes = {"n1_1", "n2_2"};
    mc.tran.eps = 0.1;
    expect_spec_roundtrip(mc);
}

TEST(WireSpec, EnsembleRoundTrip) {
    EnsembleSpec em;
    em.node = "out";
    em.t_stop = 1e-9;
    em.dt = 1e-12;
    em.paths = 64;
    em.scheme = engines::EmScheme::implicit_be;
    em.swec_update = false;
    em.threads = 4;
    expect_spec_roundtrip(em);
}

TEST(WireSpec, DefaultsAreOmittedAndRefilled) {
    // A default spec encodes as the bare discriminator...
    const json::Value op = wire::spec_to_json(OpSpec{});
    EXPECT_EQ(op.dump(), R"({"kind":"op"})");
    // ...and the bare discriminator decodes to the default spec.
    const AnalysisSpec back = wire::spec_from_json(json::parse(
        R"({"kind":"op"})"));
    EXPECT_EQ(std::get<OpSpec>(back).name, "op");
    EXPECT_EQ(std::get<OpSpec>(back).engine, DcEngine::swec);
    EXPECT_EQ(std::get<OpSpec>(back).common.deadline_s, 0.0);
}

TEST(WireSpec, UnknownKeysAreRejected) {
    EXPECT_THROW(
        wire::spec_from_json(json::parse(R"({"kind":"op","bogus":1})")),
        ServiceError);
    EXPECT_THROW(wire::spec_from_json(json::parse(
                     R"({"kind":"tran","t_sop":1e-9})")),
                 ServiceError); // the motivating typo
    EXPECT_THROW(wire::spec_from_json(json::parse(R"({"kind":"nope"})")),
                 ServiceError);
    // Retired ensemble driver knobs: `threads` alone picks the workers.
    EXPECT_THROW(wire::spec_from_json(json::parse(
                     R"({"kind":"mc","node":"n1","parallel":true})")),
                 ServiceError);
    EXPECT_THROW(wire::spec_from_json(json::parse(
                     R"({"kind":"mc","node":"n1","batch":8})")),
                 ServiceError);
    EXPECT_THROW(wire::spec_from_json(json::parse(
                     R"({"kind":"em","node":"n1","parallel":true})")),
                 ServiceError);
    EXPECT_THROW(wire::spec_from_json(json::parse(R"({})")), ServiceError);
}

TEST(WireSpec, LargeSeedTravelsAsString) {
    MonteCarloSpec mc;
    mc.node = "n1_1";
    mc.t_stop = 1e-9;
    mc.seed = (1ULL << 60) + 3; // not representable as a double
    const json::Value encoded = wire::spec_to_json(mc);
    EXPECT_TRUE(encoded.at("seed").is_string());
    const auto back =
        std::get<MonteCarloSpec>(wire::spec_from_json(encoded));
    EXPECT_EQ(back.seed, (1ULL << 60) + 3);
}

TEST(WireSpec, NoiseRealizationsNeverSerialize) {
    TranSpec tran;
    tran.t_stop = 1e-9;
    tran.noise.emplace_back(); // engine-internal per-trial state
    EXPECT_THROW((void)wire::spec_to_json(AnalysisSpec{tran}),
                 ServiceError);
}

// ---- result round-trips -----------------------------------------------

TEST(WireResult, TranResultRoundTripsBitIdentically) {
    SimSession session(refckt::rc_mesh(3, 3));
    TranSpec tran;
    tran.t_stop = 1e-9;
    tran.common.dt_init = 1e-11;
    const AnalysisResult direct = session.run(tran);

    const json::Value encoded = wire::result_to_json(direct);
    const AnalysisResult back =
        wire::result_from_json(json::parse(encoded.dump()));

    EXPECT_EQ(back.header.name, direct.header.name);
    EXPECT_EQ(back.header.engine, direct.header.engine);
    EXPECT_EQ(back.header.elapsed_s, direct.header.elapsed_s);
    EXPECT_EQ(back.header.solver.fast_refactors,
              direct.header.solver.fast_refactors);
    EXPECT_EQ(back.header.cache_signature, direct.header.cache_signature);

    const auto& a = direct.tran();
    const auto& b = back.tran();
    ASSERT_EQ(b.node_waves.size(), a.node_waves.size());
    for (std::size_t w = 0; w < a.node_waves.size(); ++w) {
        ASSERT_EQ(b.node_waves[w].size(), a.node_waves[w].size());
        EXPECT_EQ(b.node_waves[w].label(), a.node_waves[w].label());
        for (std::size_t i = 0; i < a.node_waves[w].size(); ++i) {
            // Bit identity, not tolerance: the wire uses shortest
            // round-trip doubles.
            EXPECT_EQ(b.node_waves[w].time()[i], a.node_waves[w].time()[i]);
            EXPECT_EQ(b.node_waves[w].value()[i],
                      a.node_waves[w].value()[i]);
        }
    }
    EXPECT_EQ(b.steps_accepted, a.steps_accepted);
    EXPECT_EQ(b.flops.total(), a.flops.total());
    // Re-encoding the decoded result reproduces the document bytes.
    EXPECT_EQ(wire::result_to_json(back).dump(), encoded.dump());
}

TEST(WireResult, SparseTranSolverCountersRoundTrip) {
    // 10x10 mesh: sparse path, so the SWEC steps reuse the held LU; the
    // horizon runs past the pulse edge (at period / 4), so refinement has
    // work.
    refckt::MeshSpec mesh;
    mesh.rows = 10;
    mesh.cols = 10;
    mesh.period = 20e-9;
    mesh.edge = 1e-9;
    SimSession session(refckt::rc_mesh(mesh));
    TranSpec tran;
    tran.t_stop = 8e-9;
    const AnalysisResult direct = session.run(tran);
    ASSERT_GT(direct.header.solver.reused_solves, 0u);
    ASSERT_GT(direct.header.solver.refinement_sweeps, 0u);
    ASSERT_GT(direct.tran().solver.reused_solves, 0u);
    ASSERT_GT(direct.report.reused_solves, 0u);

    const json::Value encoded = wire::result_to_json(direct);
    const AnalysisResult back =
        wire::result_from_json(json::parse(encoded.dump()));
    // Each copy of the solver-work record comes back whole.
    EXPECT_EQ(back.header.solver, direct.header.solver);
    EXPECT_EQ(back.tran().solver, direct.tran().solver);
    EXPECT_EQ(static_cast<const SolverWork&>(back.report),
              static_cast<const SolverWork&>(direct.report));
    EXPECT_EQ(wire::result_to_json(back).dump(), encoded.dump());
}

TEST(WireResult, UnknownKeysAreRejected) {
    SimSession session(refckt::rc_mesh(3, 3));
    TranSpec tran;
    tran.t_stop = 1e-9;
    const json::Value encoded = wire::result_to_json(session.run(tran));
    EXPECT_NO_THROW((void)wire::result_from_json(encoded));
    // A misspelled key anywhere in a result document fails the decode,
    // the report's flat solver-work fields included.
    const std::vector<std::vector<std::string>> blocks = {
        {"header"}, {"header", "solver"}, {"payload"},
        {"payload", "solver"}, {"report"}};
    for (const auto& path : blocks) {
        json::Value doc = encoded;
        json::Value* block = &doc;
        for (const std::string& key : path) {
            block = &block->as_object().at(key);
        }
        block->set("full_factorz", json::Value(1.0));
        EXPECT_THROW((void)wire::result_from_json(doc), ServiceError)
            << path.back();
    }
}

TEST(WireResult, OpResultRoundTrips) {
    SimSession session(refckt::rc_mesh(2, 2));
    const AnalysisResult direct = session.run(OpSpec{});
    const AnalysisResult back = wire::result_from_json(
        json::parse(wire::result_to_json(direct).dump()));
    const auto& a = direct.dc();
    const auto& b = back.dc();
    EXPECT_EQ(b.converged, a.converged);
    EXPECT_EQ(b.iterations, a.iterations);
    ASSERT_EQ(b.x.size(), a.x.size());
    for (std::size_t i = 0; i < a.x.size(); ++i) {
        EXPECT_EQ(b.x[i], a.x[i]);
    }
}

TEST(WireResult, MonteCarloResultRoundTrips) {
    wire::CircuitSource source;
    source.builtin = "mesh:3x3";
    source.noise.push_back({"n1_1", 1e-9});
    SimSession session(source.build());
    MonteCarloSpec mc;
    mc.node = "n1_1";
    mc.t_stop = 5e-10;
    mc.runs = 4;
    mc.noise_dt = 5e-11;
    mc.grid_points = 21;
    const AnalysisResult direct = session.run(mc);
    const AnalysisResult back = wire::result_from_json(
        json::parse(wire::result_to_json(direct).dump()));
    const auto& a = direct.monte_carlo();
    const auto& b = back.monte_carlo();
    ASSERT_EQ(b.grid.size(), a.grid.size());
    ASSERT_EQ(b.mean.size(), a.mean.size());
    for (std::size_t i = 0; i < a.mean.size(); ++i) {
        EXPECT_EQ(b.grid[i], a.grid[i]);
        EXPECT_EQ(b.mean.value()[i], a.mean.value()[i]);
        EXPECT_EQ(b.stddev.value()[i], a.stddev.value()[i]);
    }
    // EnsembleStats is a documented summary (parsing restores an empty
    // accumulator), so compare the documents with "stats" dropped —
    // everything else must re-encode byte-identically.
    json::Value doc_a = wire::result_to_json(direct);
    json::Value doc_b = wire::result_to_json(back);
    doc_a.as_object()[std::string("payload")].as_object().erase(
        std::string("stats"));
    doc_b.as_object()[std::string("payload")].as_object().erase(
        std::string("stats"));
    EXPECT_EQ(doc_b.dump(), doc_a.dump());
}

// ---- circuit source ---------------------------------------------------

TEST(WireCircuitSource, CanonicalIsNoiseOrderInvariant) {
    wire::CircuitSource a;
    a.builtin = "mesh:4x4";
    a.noise = {{"n1_1", 1e-9}, {"n2_2", 2e-9}};
    wire::CircuitSource b = a;
    std::swap(b.noise[0], b.noise[1]);
    EXPECT_EQ(a.canonical(), b.canonical());
    EXPECT_EQ(a.signature(), b.signature());
}

TEST(WireCircuitSource, DistinctSourcesGetDistinctSignatures) {
    wire::CircuitSource mesh4;
    mesh4.builtin = "mesh:4x4";
    wire::CircuitSource mesh5;
    mesh5.builtin = "mesh:5x5";
    wire::CircuitSource noisy = mesh4;
    noisy.noise = {{"n1_1", 1e-9}};
    EXPECT_NE(mesh4.signature(), mesh5.signature());
    EXPECT_NE(mesh4.signature(), noisy.signature());
}

TEST(WireCircuitSource, ExactlyOneSourceKindRequired) {
    wire::CircuitSource none;
    EXPECT_THROW((void)none.canonical(), ServiceError);
    wire::CircuitSource both;
    both.builtin = "mesh:2x2";
    both.deck = "* deck\n.end\n";
    EXPECT_THROW((void)both.canonical(), ServiceError);
}

TEST(WireCircuitSource, BuildsBuiltinsAndDecks) {
    wire::CircuitSource mesh;
    mesh.builtin = "mesh:3x3";
    mesh.noise.push_back({"n2_2", 1e-9});
    const Circuit built = mesh.build();
    EXPECT_GT(built.device_count(), 0U);

    wire::CircuitSource deck;
    deck.deck = "* rc\nV1 in 0 1\nR1 in out 1k\nC1 out 0 1p\n.op\n.end\n";
    EXPECT_GT(deck.build().device_count(), 0U);

    wire::CircuitSource bad = mesh;
    bad.noise[0].node = "no_such_node";
    EXPECT_THROW((void)bad.build(), NetlistError);
    bad = mesh;
    bad.noise[0].sigma = 0.0;
    EXPECT_THROW((void)bad.build(), ServiceError);
}

TEST(WireCircuitSource, JsonRoundTrip) {
    wire::CircuitSource source;
    source.builtin = "grid:4x4:2";
    source.noise = {{"vdd_1_1", 2.5e-9}};
    const wire::CircuitSource back = wire::CircuitSource::from_json(
        json::parse(source.to_json().dump()));
    EXPECT_EQ(back.canonical(), source.canonical());
    EXPECT_THROW(wire::CircuitSource::from_json(json::parse(
                     R"({"builtin":"mesh:2x2","typo":1})")),
                 ServiceError);
}

} // namespace
} // namespace nanosim
