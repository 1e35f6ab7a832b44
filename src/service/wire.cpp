#include "service/wire.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <memory>
#include <utility>

#include "core/ref_circuits.hpp"
#include "devices/sources.hpp"
#include "netlist/parser.hpp"
#include "util/error.hpp"

namespace nanosim::service::wire {
namespace {

using json::Array;
using json::Object;
using json::Value;

constexpr double k_max_exact_integer = 9007199254740992.0; // 2^53

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

/// Strict schema check: every key of `v` must be in `allowed` (or pass
/// `also_allowed`, for a record flattened into `v`) — a typo ("t_sop")
/// must fail the request, not silently run the default.
void check_keys(const Value& v,
                std::initializer_list<std::string_view> allowed,
                const char* what,
                bool (*also_allowed)(std::string_view) = nullptr) {
    for (const auto& [key, member] : v.as_object()) {
        (void)member;
        if (std::find(allowed.begin(), allowed.end(), key) ==
                allowed.end() &&
            (also_allowed == nullptr || !also_allowed(key))) {
            throw ServiceError(std::string("unknown key \"") + key +
                               "\" in " + what);
        }
    }
}

// Emit-if-not-default helpers: the omission side of the bit-identity
// round-trip contract (defaults are never written, parse fills them from
// the same default-constructed spec).
void put(Value& obj, const char* key, double v, double dflt) {
    if (v != dflt) obj.set(key, Value(v));
}
void put(Value& obj, const char* key, bool v, bool dflt) {
    if (v != dflt) obj.set(key, Value(v));
}
void put(Value& obj, const char* key, int v, int dflt) {
    if (v != dflt) obj.set(key, Value(v));
}
void put(Value& obj, const char* key, const std::string& v,
         const std::string& dflt) {
    if (v != dflt) obj.set(key, Value(v));
}
void put_size(Value& obj, const char* key, std::size_t v, std::size_t dflt) {
    if (v != dflt) obj.set(key, Value(static_cast<double>(v)));
}

/// uint64 as a JSON value: a plain number while exactly representable,
/// a decimal string beyond 2^53 (seeds, signatures).
Value u64_value(std::uint64_t v) {
    const double d = static_cast<double>(v);
    if (d <= k_max_exact_integer &&
        static_cast<std::uint64_t>(d) == v) {
        return Value(d);
    }
    return Value(std::to_string(v));
}

std::uint64_t u64_from(const Value& v, const char* what) {
    if (v.is_number()) return v.as_uint();
    if (v.is_string()) {
        const std::string& s = v.as_string();
        if (s.empty() ||
            s.find_first_not_of("0123456789") != std::string::npos) {
            throw ServiceError(std::string("bad uint64 string for ") + what);
        }
        try {
            return std::stoull(s);
        } catch (const std::exception&) {
            throw ServiceError(std::string("uint64 out of range for ") +
                               what);
        }
    }
    throw ServiceError(std::string(what) + " must be a number or string");
}

void put_u64(Value& obj, const char* key, std::uint64_t v,
             std::uint64_t dflt) {
    if (v != dflt) obj.set(key, u64_value(v));
}

Value vector_to_json(const std::vector<double>& x) {
    Array arr;
    arr.reserve(x.size());
    for (double v : x) arr.emplace_back(v);
    return Value(std::move(arr));
}

std::vector<double> vector_from_json(const Value& v) {
    std::vector<double> out;
    out.reserve(v.as_array().size());
    for (const Value& e : v.as_array()) out.push_back(e.as_number());
    return out;
}

Value bools_to_json(const std::vector<bool>& x) {
    Array arr;
    arr.reserve(x.size());
    for (bool v : x) arr.emplace_back(v);
    return Value(std::move(arr));
}

Value strings_to_json(const std::vector<std::string>& x) {
    Array arr;
    arr.reserve(x.size());
    for (const std::string& s : x) arr.emplace_back(s);
    return Value(std::move(arr));
}

// ---------------------------------------------------------------------
// Engine / enum names
// ---------------------------------------------------------------------

DcEngine dc_engine_from(const std::string& name) {
    if (name == "swec") return DcEngine::swec;
    if (name == "nr") return DcEngine::newton_raphson;
    if (name == "mla") return DcEngine::mla;
    throw ServiceError("unknown DC engine \"" + name +
                       "\" (have: swec, nr, mla)");
}

TranEngine tran_engine_from(const std::string& name) {
    if (name == "swec") return TranEngine::swec;
    if (name == "nr") return TranEngine::newton_raphson;
    if (name == "pwl") return TranEngine::pwl;
    throw ServiceError("unknown transient engine \"" + name +
                       "\" (have: swec, nr, pwl)");
}

const char* scheme_name(engines::EmScheme s) {
    return s == engines::EmScheme::explicit_em ? "explicit" : "implicit";
}

engines::EmScheme scheme_from(const std::string& name) {
    if (name == "explicit") return engines::EmScheme::explicit_em;
    if (name == "implicit") return engines::EmScheme::implicit_be;
    throw ServiceError("unknown EM scheme \"" + name +
                       "\" (have: explicit, implicit)");
}

linalg::Ordering ordering_from(const std::string& name) {
    if (name == "natural") return linalg::Ordering::natural;
    if (name == "rcm") return linalg::Ordering::rcm;
    if (name == "min_degree") return linalg::Ordering::min_degree;
    throw ServiceError("unknown ordering \"" + name + "\"");
}

// ---------------------------------------------------------------------
// Option blocks
// ---------------------------------------------------------------------

Value common_to_json(const CommonOptions& c) {
    const CommonOptions d;
    Value obj{Object{}};
    put(obj, "abstol", c.abstol, d.abstol);
    put(obj, "reltol", c.reltol, d.reltol);
    put(obj, "dt_init", c.dt_init, d.dt_init);
    put(obj, "dt_min", c.dt_min, d.dt_min);
    put(obj, "dt_max", c.dt_max, d.dt_max);
    put(obj, "tabulate", c.tabulate, d.tabulate);
    put(obj, "deadline_s", c.deadline_s, d.deadline_s);
    return obj;
}

CommonOptions common_from_json(const Value& v) {
    check_keys(v,
               {"abstol", "reltol", "dt_init", "dt_min", "dt_max",
                "tabulate", "deadline_s"},
               "common options");
    CommonOptions c;
    if (const Value* p = v.find("abstol")) c.abstol = p->as_number();
    if (const Value* p = v.find("reltol")) c.reltol = p->as_number();
    if (const Value* p = v.find("dt_init")) c.dt_init = p->as_number();
    if (const Value* p = v.find("dt_min")) c.dt_min = p->as_number();
    if (const Value* p = v.find("dt_max")) c.dt_max = p->as_number();
    if (const Value* p = v.find("tabulate")) c.tabulate = p->as_bool();
    if (const Value* p = v.find("deadline_s")) c.deadline_s = p->as_number();
    return c;
}

Value tables_to_json(const TableConfig& t) {
    const TableConfig d;
    Value obj{Object{}};
    put(obj, "enabled", t.enabled, d.enabled);
    put(obj, "v_min", t.v_min, d.v_min);
    put(obj, "v_max", t.v_max, d.v_max);
    put_size(obj, "points", t.points, d.points);
    put(obj, "rel_tol", t.rel_tol, d.rel_tol);
    return obj;
}

TableConfig tables_from_json(const Value& v) {
    check_keys(v, {"enabled", "v_min", "v_max", "points", "rel_tol"},
               "table config");
    TableConfig t;
    if (const Value* p = v.find("enabled")) t.enabled = p->as_bool();
    if (const Value* p = v.find("v_min")) t.v_min = p->as_number();
    if (const Value* p = v.find("v_max")) t.v_max = p->as_number();
    if (const Value* p = v.find("points"))
        t.points = static_cast<std::size_t>(p->as_uint());
    if (const Value* p = v.find("rel_tol")) t.rel_tol = p->as_number();
    return t;
}

Value swec_tran_to_json(const engines::SwecTranOptions& t) {
    if (!t.noise.empty()) {
        throw ServiceError("SwecTranOptions::noise (per-trial noise "
                           "realizations) is engine-internal state and "
                           "cannot be serialized");
    }
    const engines::SwecTranOptions d;
    Value obj{Object{}};
    put(obj, "t_stop", t.t_stop, d.t_stop);
    put(obj, "dt_init", t.dt_init, d.dt_init);
    put(obj, "dt_min", t.dt_min, d.dt_min);
    put(obj, "dt_max", t.dt_max, d.dt_max);
    put(obj, "eps", t.eps, d.eps);
    put(obj, "adaptive", t.adaptive, d.adaptive);
    put(obj, "use_predictor", t.use_predictor, d.use_predictor);
    put(obj, "growth_limit", t.growth_limit, d.growth_limit);
    put(obj, "geq_floor", t.geq_floor, d.geq_floor);
    put(obj, "start_from_dc", t.start_from_dc, d.start_from_dc);
    Value tables = tables_to_json(t.tables);
    if (!tables.as_object().empty()) obj.set("tables", std::move(tables));
    if (!t.initial.empty()) obj.set("initial", vector_to_json(t.initial));
    return obj;
}

engines::SwecTranOptions swec_tran_from_json(const Value& v) {
    check_keys(v,
               {"t_stop", "dt_init", "dt_min", "dt_max", "eps", "adaptive",
                "use_predictor", "growth_limit", "geq_floor",
                "start_from_dc", "tables", "initial"},
               "swec transient options");
    engines::SwecTranOptions t;
    if (const Value* p = v.find("t_stop")) t.t_stop = p->as_number();
    if (const Value* p = v.find("dt_init")) t.dt_init = p->as_number();
    if (const Value* p = v.find("dt_min")) t.dt_min = p->as_number();
    if (const Value* p = v.find("dt_max")) t.dt_max = p->as_number();
    if (const Value* p = v.find("eps")) t.eps = p->as_number();
    if (const Value* p = v.find("adaptive")) t.adaptive = p->as_bool();
    if (const Value* p = v.find("use_predictor"))
        t.use_predictor = p->as_bool();
    if (const Value* p = v.find("growth_limit"))
        t.growth_limit = p->as_number();
    if (const Value* p = v.find("geq_floor")) t.geq_floor = p->as_number();
    if (const Value* p = v.find("start_from_dc"))
        t.start_from_dc = p->as_bool();
    if (const Value* p = v.find("tables")) t.tables = tables_from_json(*p);
    if (const Value* p = v.find("initial")) t.initial = vector_from_json(*p);
    return t;
}

/// Attach a non-empty sub-object under `key` (an all-defaults block is
/// omitted entirely).
void put_block(Value& obj, const char* key, Value block) {
    if (!block.as_object().empty()) obj.set(key, std::move(block));
}

// ---------------------------------------------------------------------
// Spec serialization
// ---------------------------------------------------------------------

Value op_to_json(const OpSpec& s) {
    const OpSpec d;
    Value obj{Object{}};
    obj.set("kind", "op");
    put(obj, "name", s.name, d.name);
    put(obj, "engine", engine_name(s.engine), engine_name(d.engine));
    put_block(obj, "common", common_to_json(s.common));
    return obj;
}

OpSpec op_from_json(const Value& v) {
    check_keys(v, {"kind", "name", "engine", "common"}, "op spec");
    OpSpec s;
    if (const Value* p = v.find("name")) s.name = p->as_string();
    if (const Value* p = v.find("engine"))
        s.engine = dc_engine_from(p->as_string());
    if (const Value* p = v.find("common")) s.common = common_from_json(*p);
    return s;
}

Value dc_to_json(const DcSweepSpec& s) {
    const DcSweepSpec d;
    Value obj{Object{}};
    obj.set("kind", "dc");
    put(obj, "name", s.name, d.name);
    put(obj, "engine", engine_name(s.engine), engine_name(d.engine));
    put_block(obj, "common", common_to_json(s.common));
    put(obj, "source", s.source, d.source);
    put(obj, "start", s.start, d.start);
    put(obj, "stop", s.stop, d.stop);
    put(obj, "step", s.step, d.step);
    return obj;
}

DcSweepSpec dc_from_json(const Value& v) {
    check_keys(v,
               {"kind", "name", "engine", "common", "source", "start",
                "stop", "step"},
               "dc sweep spec");
    DcSweepSpec s;
    if (const Value* p = v.find("name")) s.name = p->as_string();
    if (const Value* p = v.find("engine"))
        s.engine = dc_engine_from(p->as_string());
    if (const Value* p = v.find("common")) s.common = common_from_json(*p);
    if (const Value* p = v.find("source")) s.source = p->as_string();
    if (const Value* p = v.find("start")) s.start = p->as_number();
    if (const Value* p = v.find("stop")) s.stop = p->as_number();
    if (const Value* p = v.find("step")) s.step = p->as_number();
    return s;
}

Value tran_to_json(const TranSpec& s) {
    if (!s.noise.empty()) {
        throw ServiceError("TranSpec::noise (per-trial noise realizations) "
                           "is engine-internal state and cannot be "
                           "serialized");
    }
    const TranSpec d;
    Value obj{Object{}};
    obj.set("kind", "tran");
    put(obj, "name", s.name, d.name);
    put(obj, "engine", engine_name(s.engine), engine_name(d.engine));
    put_block(obj, "common", common_to_json(s.common));
    put(obj, "t_stop", s.t_stop, d.t_stop);
    put(obj, "start_from_dc", s.start_from_dc, d.start_from_dc);
    if (!s.initial.empty()) obj.set("initial", vector_to_json(s.initial));
    put(obj, "eps", s.eps, d.eps);
    put(obj, "adaptive", s.adaptive, d.adaptive);
    put(obj, "use_predictor", s.use_predictor, d.use_predictor);
    put(obj, "growth_limit", s.growth_limit, d.growth_limit);
    put(obj, "geq_floor", s.geq_floor, d.geq_floor);
    return obj;
}

TranSpec tran_from_json(const Value& v) {
    check_keys(v,
               {"kind", "name", "engine", "common", "t_stop",
                "start_from_dc", "initial", "eps", "adaptive",
                "use_predictor", "growth_limit", "geq_floor"},
               "transient spec");
    TranSpec s;
    if (const Value* p = v.find("name")) s.name = p->as_string();
    if (const Value* p = v.find("engine"))
        s.engine = tran_engine_from(p->as_string());
    if (const Value* p = v.find("common")) s.common = common_from_json(*p);
    if (const Value* p = v.find("t_stop")) s.t_stop = p->as_number();
    if (const Value* p = v.find("start_from_dc"))
        s.start_from_dc = p->as_bool();
    if (const Value* p = v.find("initial")) s.initial = vector_from_json(*p);
    if (const Value* p = v.find("eps")) s.eps = p->as_number();
    if (const Value* p = v.find("adaptive")) s.adaptive = p->as_bool();
    if (const Value* p = v.find("use_predictor"))
        s.use_predictor = p->as_bool();
    if (const Value* p = v.find("growth_limit"))
        s.growth_limit = p->as_number();
    if (const Value* p = v.find("geq_floor")) s.geq_floor = p->as_number();
    return s;
}

Value mc_to_json(const MonteCarloSpec& s) {
    const MonteCarloSpec d;
    Value obj{Object{}};
    obj.set("kind", "mc");
    put(obj, "name", s.name, d.name);
    put_block(obj, "common", common_to_json(s.common));
    put(obj, "node", s.node, d.node);
    put(obj, "t_stop", s.t_stop, d.t_stop);
    put(obj, "runs", s.runs, d.runs);
    put(obj, "noise_dt", s.noise_dt, d.noise_dt);
    put_size(obj, "grid_points", s.grid_points, d.grid_points);
    put_u64(obj, "seed", s.seed, d.seed);
    put(obj, "threads", s.threads, d.threads);
    if (!s.probes.empty()) obj.set("probes", strings_to_json(s.probes));
    put(obj, "checkpoint_every", s.checkpoint_every, d.checkpoint_every);
    if (s.resume != nullptr) obj.set("resume", checkpoint_to_json(*s.resume));
    put_block(obj, "tran", swec_tran_to_json(s.tran));
    return obj;
}

MonteCarloSpec mc_from_json(const Value& v) {
    check_keys(v,
               {"kind", "name", "common", "node", "t_stop", "runs",
                "noise_dt", "grid_points", "seed", "threads", "probes",
                "checkpoint_every", "resume", "tran"},
               "monte-carlo spec");
    MonteCarloSpec s;
    if (const Value* p = v.find("name")) s.name = p->as_string();
    if (const Value* p = v.find("common")) s.common = common_from_json(*p);
    if (const Value* p = v.find("node")) s.node = p->as_string();
    if (const Value* p = v.find("t_stop")) s.t_stop = p->as_number();
    if (const Value* p = v.find("runs")) s.runs = p->as_int();
    if (const Value* p = v.find("noise_dt")) s.noise_dt = p->as_number();
    if (const Value* p = v.find("grid_points"))
        s.grid_points = static_cast<std::size_t>(p->as_uint());
    if (const Value* p = v.find("seed")) s.seed = u64_from(*p, "seed");
    if (const Value* p = v.find("threads")) s.threads = p->as_int();
    if (const Value* p = v.find("probes")) {
        for (const Value& e : p->as_array())
            s.probes.push_back(e.as_string());
    }
    if (const Value* p = v.find("checkpoint_every"))
        s.checkpoint_every = p->as_int();
    if (const Value* p = v.find("resume")) {
        s.resume = std::make_shared<const engines::McCheckpoint>(
            checkpoint_from_json(*p));
    }
    if (const Value* p = v.find("tran")) s.tran = swec_tran_from_json(*p);
    return s;
}

Value em_to_json(const EnsembleSpec& s) {
    const EnsembleSpec d;
    Value obj{Object{}};
    obj.set("kind", "em");
    put(obj, "name", s.name, d.name);
    put_block(obj, "common", common_to_json(s.common));
    put(obj, "node", s.node, d.node);
    put(obj, "t_stop", s.t_stop, d.t_stop);
    put(obj, "dt", s.dt, d.dt);
    put(obj, "paths", s.paths, d.paths);
    put(obj, "scheme", scheme_name(s.scheme), scheme_name(d.scheme));
    put(obj, "swec_update", s.swec_update, d.swec_update);
    put(obj, "start_from_dc", s.start_from_dc, d.start_from_dc);
    if (!s.initial.empty()) obj.set("initial", vector_to_json(s.initial));
    put_u64(obj, "seed", s.seed, d.seed);
    put(obj, "threads", s.threads, d.threads);
    return obj;
}

EnsembleSpec em_from_json(const Value& v) {
    check_keys(v,
               {"kind", "name", "common", "node", "t_stop", "dt", "paths",
                "scheme", "swec_update", "start_from_dc", "initial", "seed",
                "threads"},
               "ensemble spec");
    EnsembleSpec s;
    if (const Value* p = v.find("name")) s.name = p->as_string();
    if (const Value* p = v.find("common")) s.common = common_from_json(*p);
    if (const Value* p = v.find("node")) s.node = p->as_string();
    if (const Value* p = v.find("t_stop")) s.t_stop = p->as_number();
    if (const Value* p = v.find("dt")) s.dt = p->as_number();
    if (const Value* p = v.find("paths")) s.paths = p->as_int();
    if (const Value* p = v.find("scheme"))
        s.scheme = scheme_from(p->as_string());
    if (const Value* p = v.find("swec_update"))
        s.swec_update = p->as_bool();
    if (const Value* p = v.find("start_from_dc"))
        s.start_from_dc = p->as_bool();
    if (const Value* p = v.find("initial")) s.initial = vector_from_json(*p);
    if (const Value* p = v.find("seed")) s.seed = u64_from(*p, "seed");
    if (const Value* p = v.find("threads")) s.threads = p->as_int();
    return s;
}

// ---------------------------------------------------------------------
// Result building blocks
// ---------------------------------------------------------------------

Value wave_to_json(const analysis::Waveform& w) {
    Value obj{Object{}};
    obj.set("label", w.label());
    obj.set("t", vector_to_json(w.time()));
    obj.set("v", vector_to_json(w.value()));
    return obj;
}

analysis::Waveform wave_from_json(const Value& v) {
    check_keys(v, {"label", "t", "v"}, "waveform");
    std::vector<double> t = vector_from_json(v.at("t"));
    std::vector<double> val = vector_from_json(v.at("v"));
    if (t.empty()) {
        // The (label, time, value) constructor wants samples; an aborted
        // run can legitimately produce an empty record.
        return analysis::Waveform(v.at("label").as_string());
    }
    return analysis::Waveform(v.at("label").as_string(), std::move(t),
                              std::move(val));
}

Value waves_to_json(const std::vector<analysis::Waveform>& waves) {
    Array arr;
    arr.reserve(waves.size());
    for (const auto& w : waves) arr.push_back(wave_to_json(w));
    return Value(std::move(arr));
}

std::vector<analysis::Waveform> waves_from_json(const Value& v) {
    std::vector<analysis::Waveform> out;
    out.reserve(v.as_array().size());
    for (const Value& e : v.as_array()) out.push_back(wave_from_json(e));
    return out;
}

Value flops_to_json(const FlopCounter& f) {
    Value obj{Object{}};
    obj.set("add", u64_value(f.add));
    obj.set("mul", u64_value(f.mul));
    obj.set("div", u64_value(f.div));
    obj.set("special", u64_value(f.special));
    obj.set("lu_factor", u64_value(f.lu_factor));
    obj.set("lu_solve", u64_value(f.lu_solve));
    obj.set("device_eval", u64_value(f.device_eval));
    return obj;
}

FlopCounter flops_from_json(const Value& v) {
    check_keys(v,
               {"add", "mul", "div", "special", "lu_factor", "lu_solve",
                "device_eval"},
               "flop counter");
    FlopCounter f;
    f.add = u64_from(v.at("add"), "flops.add");
    f.mul = u64_from(v.at("mul"), "flops.mul");
    f.div = u64_from(v.at("div"), "flops.div");
    f.special = u64_from(v.at("special"), "flops.special");
    f.lu_factor = u64_from(v.at("lu_factor"), "flops.lu_factor");
    f.lu_solve = u64_from(v.at("lu_solve"), "flops.lu_solve");
    f.device_eval = u64_from(v.at("device_eval"), "flops.device_eval");
    return f;
}

Value ordering_to_json(const engines::SolverOrderingStats& o) {
    Value obj{Object{}};
    obj.set("ordering", o.name());
    obj.set("pattern_nnz", Value(static_cast<double>(o.pattern_nnz)));
    obj.set("predicted_fill_natural",
            Value(static_cast<double>(o.predicted_fill_natural)));
    obj.set("predicted_fill_chosen",
            Value(static_cast<double>(o.predicted_fill_chosen)));
    obj.set("factor_nnz", Value(static_cast<double>(o.factor_nnz)));
    return obj;
}

engines::SolverOrderingStats ordering_from_json(const Value& v) {
    check_keys(v,
               {"ordering", "pattern_nnz", "predicted_fill_natural",
                "predicted_fill_chosen", "factor_nnz"},
               "ordering stats");
    engines::SolverOrderingStats o;
    o.ordering = ordering_from(v.at("ordering").as_string());
    o.pattern_nnz = static_cast<std::size_t>(v.at("pattern_nnz").as_uint());
    o.predicted_fill_natural = static_cast<std::size_t>(
        v.at("predicted_fill_natural").as_uint());
    o.predicted_fill_chosen =
        static_cast<std::size_t>(v.at("predicted_fill_chosen").as_uint());
    o.factor_nnz = static_cast<std::size_t>(v.at("factor_nnz").as_uint());
    return o;
}

Value bounds_to_json(const obs::StepBoundCounts& b) {
    Value obj{Object{}};
    obj.set("device", u64_value(b.device));
    obj.set("node", u64_value(b.node));
    obj.set("growth", u64_value(b.growth));
    obj.set("dt_max", u64_value(b.dt_max));
    obj.set("dt_min", u64_value(b.dt_min));
    obj.set("breakpoint", u64_value(b.breakpoint));
    obj.set("horizon", u64_value(b.horizon));
    obj.set("fixed", u64_value(b.fixed));
    return obj;
}

obs::StepBoundCounts bounds_from_json(const Value& v) {
    check_keys(v,
               {"device", "node", "growth", "dt_max", "dt_min",
                "breakpoint", "horizon", "fixed"},
               "step bounds");
    obs::StepBoundCounts b;
    b.device = u64_from(v.at("device"), "bounds.device");
    b.node = u64_from(v.at("node"), "bounds.node");
    b.growth = u64_from(v.at("growth"), "bounds.growth");
    b.dt_max = u64_from(v.at("dt_max"), "bounds.dt_max");
    b.dt_min = u64_from(v.at("dt_min"), "bounds.dt_min");
    b.breakpoint = u64_from(v.at("breakpoint"), "bounds.breakpoint");
    b.horizon = u64_from(v.at("horizon"), "bounds.horizon");
    b.fixed = u64_from(v.at("fixed"), "bounds.fixed");
    return b;
}

Value rescues_to_json(const obs::RescueCounts& r) {
    Value obj{Object{}};
    obj.set("dt_backoff_attempted", u64_value(r.dt_backoff_attempted));
    obj.set("dt_backoff_succeeded", u64_value(r.dt_backoff_succeeded));
    obj.set("gmin_attempted", u64_value(r.gmin_attempted));
    obj.set("gmin_succeeded", u64_value(r.gmin_succeeded));
    obj.set("source_attempted", u64_value(r.source_attempted));
    obj.set("source_succeeded", u64_value(r.source_succeeded));
    return obj;
}

obs::RescueCounts rescues_from_json(const Value& v) {
    check_keys(v,
               {"dt_backoff_attempted", "dt_backoff_succeeded",
                "gmin_attempted", "gmin_succeeded", "source_attempted",
                "source_succeeded"},
               "rescue counts");
    obs::RescueCounts r;
    r.dt_backoff_attempted =
        u64_from(v.at("dt_backoff_attempted"), "dt_backoff_attempted");
    r.dt_backoff_succeeded =
        u64_from(v.at("dt_backoff_succeeded"), "dt_backoff_succeeded");
    r.gmin_attempted = u64_from(v.at("gmin_attempted"), "gmin_attempted");
    r.gmin_succeeded = u64_from(v.at("gmin_succeeded"), "gmin_succeeded");
    r.source_attempted =
        u64_from(v.at("source_attempted"), "source_attempted");
    r.source_succeeded =
        u64_from(v.at("source_succeeded"), "source_succeeded");
    return r;
}

Value failed_trials_to_json(const std::vector<engines::McFailedTrial>& f) {
    Array arr;
    arr.reserve(f.size());
    for (const engines::McFailedTrial& t : f) {
        Value e{Object{}};
        e.set("trial", Value(t.trial));
        e.set("seed", u64_value(t.seed));
        e.set("diagnostic", t.diagnostic);
        arr.push_back(std::move(e));
    }
    return Value(std::move(arr));
}

std::vector<engines::McFailedTrial> failed_trials_from_json(const Value& v) {
    std::vector<engines::McFailedTrial> out;
    out.reserve(v.as_array().size());
    for (const Value& e : v.as_array()) {
        check_keys(e, {"trial", "seed", "diagnostic"}, "failed trial");
        out.push_back(engines::McFailedTrial{
            e.at("trial").as_int(), u64_from(e.at("seed"), "failed.seed"),
            e.at("diagnostic").as_string()});
    }
    return out;
}

/// EnsembleStats travels as a SUMMARY (per-point accumulators cannot be
/// reconstructed): path/point counts, peak statistics, per-path peaks.
/// Parsing restores an empty accumulator of the right width — the mean
/// and stddev waveforms carry the ensemble statistics losslessly.
Value stats_to_json(const stochastic::EnsembleStats& s) {
    Value obj{Object{}};
    obj.set("paths", Value(static_cast<double>(s.paths())));
    obj.set("points", Value(static_cast<double>(s.points())));
    Value peak{Object{}};
    peak.set("count", Value(static_cast<double>(s.peak_stats().count())));
    peak.set("mean", Value(s.peak_stats().mean()));
    peak.set("stddev", Value(s.peak_stats().stddev()));
    peak.set("min", Value(s.peak_stats().min()));
    peak.set("max", Value(s.peak_stats().max()));
    obj.set("peak", std::move(peak));
    obj.set("peaks", vector_to_json(s.peaks()));
    return obj;
}

stochastic::EnsembleStats stats_from_json(const Value& v) {
    check_keys(v, {"paths", "points", "peak", "peaks"}, "ensemble stats");
    return stochastic::EnsembleStats(
        static_cast<std::size_t>(v.at("points").as_uint()));
}

// ---------------------------------------------------------------------
// Monte-Carlo checkpoint state
// ---------------------------------------------------------------------

Value stat_state_to_json(const engines::McStatState& s) {
    Value obj{Object{}};
    obj.set("n", u64_value(s.n));
    obj.set("mean", Value(s.mean));
    obj.set("m2", Value(s.m2));
    obj.set("min", Value(s.min));
    obj.set("max", Value(s.max));
    return obj;
}

engines::McStatState stat_state_from_json(const Value& v) {
    check_keys(v, {"n", "mean", "m2", "min", "max"}, "stat state");
    engines::McStatState s;
    s.n = u64_from(v.at("n"), "stat.n");
    s.mean = v.at("mean").as_number();
    s.m2 = v.at("m2").as_number();
    s.min = v.at("min").as_number();
    s.max = v.at("max").as_number();
    return s;
}

/// Raw ensemble accumulators travel as parallel per-point arrays (one
/// entry per grid point) — compact, and every double round-trips exactly.
Value ens_state_to_json(const engines::McEnsembleState& s) {
    Array n;
    Array mean;
    Array m2;
    Array min;
    Array max;
    n.reserve(s.per_point.size());
    mean.reserve(s.per_point.size());
    m2.reserve(s.per_point.size());
    min.reserve(s.per_point.size());
    max.reserve(s.per_point.size());
    for (const engines::McStatState& p : s.per_point) {
        n.push_back(u64_value(p.n));
        mean.emplace_back(p.mean);
        m2.emplace_back(p.m2);
        min.emplace_back(p.min);
        max.emplace_back(p.max);
    }
    Value obj{Object{}};
    obj.set("n", Value(std::move(n)));
    obj.set("mean", Value(std::move(mean)));
    obj.set("m2", Value(std::move(m2)));
    obj.set("min", Value(std::move(min)));
    obj.set("max", Value(std::move(max)));
    obj.set("peak", stat_state_to_json(s.peak));
    obj.set("peaks", vector_to_json(s.peaks));
    obj.set("paths", u64_value(s.paths));
    return obj;
}

engines::McEnsembleState ens_state_from_json(const Value& v) {
    check_keys(v, {"n", "mean", "m2", "min", "max", "peak", "peaks", "paths"},
               "ensemble state");
    engines::McEnsembleState s;
    const auto& n = v.at("n").as_array();
    const auto& mean = v.at("mean").as_array();
    const auto& m2 = v.at("m2").as_array();
    const auto& min = v.at("min").as_array();
    const auto& max = v.at("max").as_array();
    if (mean.size() != n.size() || m2.size() != n.size() ||
        min.size() != n.size() || max.size() != n.size()) {
        throw ServiceError("ensemble state arrays disagree in length");
    }
    s.per_point.reserve(n.size());
    for (std::size_t i = 0; i < n.size(); ++i) {
        engines::McStatState p;
        p.n = u64_from(n[i], "ensemble.n");
        p.mean = mean[i].as_number();
        p.m2 = m2[i].as_number();
        p.min = min[i].as_number();
        p.max = max[i].as_number();
        s.per_point.push_back(p);
    }
    s.peak = stat_state_from_json(v.at("peak"));
    s.peaks = vector_from_json(v.at("peaks"));
    s.paths = u64_from(v.at("paths"), "ensemble.paths");
    return s;
}

// ---------------------------------------------------------------------
// SolverWork: one codec over the record's field list
// ---------------------------------------------------------------------

Value field_to_json(std::uint64_t v) { return u64_value(v); }
Value field_to_json(double v) { return Value(v); }
void field_from_json(const Value& v, const char* key, std::uint64_t& out) {
    out = u64_from(v, key);
}
void field_from_json(const Value& v, const char* /*key*/, double& out) {
    out = v.as_number();
}

bool solver_work_key(std::string_view key) {
    return std::apply(
        [key](const auto&... field) { return ((key == field.first) || ...); },
        SolverWork::fields());
}

/// Read every SolverWork field of `w` (a record derived from one, too)
/// from `v`, which may hold other keys besides (the flat report).
void read_solver_work(const Value& v, SolverWork& w) {
    SolverWork::for_each_field(w, [&v](const char* key, auto& value) {
        field_from_json(v.at(key), key, value);
    });
}

/// The header's and the payloads' "solver" object.
Value solver_work_to_json(const SolverWork& w) {
    Value obj{Object{}};
    SolverWork::for_each_field(w, [&obj](const char* key, const auto& value) {
        obj.set(key, field_to_json(value));
    });
    return obj;
}

SolverWork solver_work_from_json(const Value& v) {
    check_keys(v, {}, "solver work", solver_work_key);
    SolverWork w;
    read_solver_work(v, w);
    return w;
}

// ---------------------------------------------------------------------
// Result payloads
// ---------------------------------------------------------------------

Value dc_result_to_json(const engines::DcResult& r) {
    Value obj{Object{}};
    obj.set("x", vector_to_json(r.x));
    obj.set("converged", Value(r.converged));
    obj.set("aborted", Value(r.aborted));
    obj.set("oscillation_detected", Value(r.oscillation_detected));
    obj.set("iterations", Value(r.iterations));
    obj.set("residual", Value(r.residual));
    obj.set("flops", flops_to_json(r.flops));
    obj.set("solver", solver_work_to_json(r.solver));
    obj.set("ordering", ordering_to_json(r.solver_ordering));
    Array trace;
    trace.reserve(r.trace.size());
    for (const auto& x : r.trace) trace.push_back(vector_to_json(x));
    obj.set("trace", Value(std::move(trace)));
    return obj;
}

engines::DcResult dc_result_from_json(const Value& v) {
    check_keys(v,
               {"x", "converged", "aborted", "oscillation_detected",
                "iterations", "residual", "flops", "solver", "ordering",
                "trace"},
               "dc result");
    engines::DcResult r;
    r.x = vector_from_json(v.at("x"));
    r.converged = v.at("converged").as_bool();
    r.aborted = v.at("aborted").as_bool();
    r.oscillation_detected = v.at("oscillation_detected").as_bool();
    r.iterations = v.at("iterations").as_int();
    r.residual = v.at("residual").as_number();
    r.flops = flops_from_json(v.at("flops"));
    r.solver = solver_work_from_json(v.at("solver"));
    r.solver_ordering = ordering_from_json(v.at("ordering"));
    for (const Value& e : v.at("trace").as_array())
        r.trace.push_back(vector_from_json(e));
    return r;
}

Value sweep_result_to_json(const engines::SweepResult& r) {
    Value obj{Object{}};
    obj.set("values", vector_to_json(r.values));
    Array solutions;
    solutions.reserve(r.solutions.size());
    for (const auto& x : r.solutions) solutions.push_back(vector_to_json(x));
    obj.set("solutions", Value(std::move(solutions)));
    obj.set("converged", bools_to_json(r.converged));
    obj.set("total_iterations", Value(r.total_iterations));
    obj.set("aborted", Value(r.aborted));
    obj.set("flops", flops_to_json(r.flops));
    return obj;
}

engines::SweepResult sweep_result_from_json(const Value& v) {
    check_keys(v,
               {"values", "solutions", "converged", "total_iterations",
                "aborted", "flops"},
               "sweep result");
    engines::SweepResult r;
    r.values = vector_from_json(v.at("values"));
    for (const Value& e : v.at("solutions").as_array())
        r.solutions.push_back(vector_from_json(e));
    for (const Value& e : v.at("converged").as_array())
        r.converged.push_back(e.as_bool());
    r.total_iterations = v.at("total_iterations").as_int();
    r.aborted = v.at("aborted").as_bool();
    r.flops = flops_from_json(v.at("flops"));
    return r;
}

Value tran_result_to_json(const engines::TranResult& r) {
    Value obj{Object{}};
    obj.set("node_waves", waves_to_json(r.node_waves));
    obj.set("aborted", Value(r.aborted));
    obj.set("steps_accepted", Value(r.steps_accepted));
    obj.set("steps_rejected", Value(r.steps_rejected));
    obj.set("nr_iterations", Value(r.nr_iterations));
    obj.set("nonconverged_steps", Value(r.nonconverged_steps));
    obj.set("min_dt_used", Value(r.min_dt_used));
    obj.set("max_dt_used", Value(r.max_dt_used));
    obj.set("max_local_error", Value(r.max_local_error));
    obj.set("avg_local_error", Value(r.avg_local_error));
    obj.set("step_bounds", bounds_to_json(r.step_bounds));
    obj.set("rescues", rescues_to_json(r.rescues));
    obj.set("flops", flops_to_json(r.flops));
    obj.set("solver", solver_work_to_json(r.solver));
    obj.set("ordering", ordering_to_json(r.solver_ordering));
    return obj;
}

engines::TranResult tran_result_from_json(const Value& v) {
    check_keys(v,
               {"node_waves", "aborted", "steps_accepted", "steps_rejected",
                "nr_iterations", "nonconverged_steps", "min_dt_used",
                "max_dt_used", "max_local_error", "avg_local_error",
                "step_bounds", "rescues", "flops", "solver", "ordering"},
               "transient result");
    engines::TranResult r;
    r.node_waves = waves_from_json(v.at("node_waves"));
    r.aborted = v.at("aborted").as_bool();
    r.steps_accepted = v.at("steps_accepted").as_int();
    r.steps_rejected = v.at("steps_rejected").as_int();
    r.nr_iterations = v.at("nr_iterations").as_int();
    r.nonconverged_steps = v.at("nonconverged_steps").as_int();
    r.min_dt_used = v.at("min_dt_used").as_number();
    r.max_dt_used = v.at("max_dt_used").as_number();
    r.max_local_error = v.at("max_local_error").as_number();
    r.avg_local_error = v.at("avg_local_error").as_number();
    r.step_bounds = bounds_from_json(v.at("step_bounds"));
    r.rescues = rescues_from_json(v.at("rescues"));
    r.flops = flops_from_json(v.at("flops"));
    r.solver = solver_work_from_json(v.at("solver"));
    r.solver_ordering = ordering_from_json(v.at("ordering"));
    return r;
}

Value mc_result_to_json(const engines::McResult& r) {
    Value obj{Object{}};
    obj.set("grid", vector_to_json(r.grid));
    obj.set("mean", wave_to_json(r.mean));
    obj.set("stddev", wave_to_json(r.stddev));
    obj.set("stats", stats_to_json(r.stats));
    Array probes;
    probes.reserve(r.probes.size());
    for (const auto& p : r.probes) {
        Value probe{Object{}};
        probe.set("node", Value(static_cast<double>(p.node)));
        probe.set("name", p.name);
        probe.set("mean", wave_to_json(p.mean));
        probe.set("stddev", wave_to_json(p.stddev));
        probe.set("stats", stats_to_json(p.stats));
        probes.push_back(std::move(probe));
    }
    obj.set("probes", Value(std::move(probes)));
    Array steps;
    steps.reserve(r.trial_steps.size());
    for (int s : r.trial_steps) steps.emplace_back(s);
    obj.set("trial_steps", Value(std::move(steps)));
    obj.set("failed_trials", failed_trials_to_json(r.failed_trials));
    obj.set("rescues", rescues_to_json(r.rescues));
    obj.set("aborted", Value(r.aborted));
    obj.set("flops", flops_to_json(r.flops));
    return obj;
}

engines::McResult mc_result_from_json(const Value& v) {
    check_keys(v,
               {"grid", "mean", "stddev", "stats", "probes", "trial_steps",
                "failed_trials", "rescues", "aborted", "flops"},
               "monte-carlo result");
    engines::McResult r{
        .grid = vector_from_json(v.at("grid")),
        .mean = wave_from_json(v.at("mean")),
        .stddev = wave_from_json(v.at("stddev")),
        .stats = stats_from_json(v.at("stats")),
        .probes = {},
        .trial_steps = {},
        .failed_trials = failed_trials_from_json(v.at("failed_trials")),
        .rescues = rescues_from_json(v.at("rescues")),
        .aborted = v.at("aborted").as_bool(),
        .flops = flops_from_json(v.at("flops"))};
    for (const Value& e : v.at("probes").as_array()) {
        check_keys(e, {"node", "name", "mean", "stddev", "stats"},
                   "mc probe");
        engines::McNodeStats p{
            .node = static_cast<NodeId>(e.at("node").as_uint()),
            .name = e.at("name").as_string(),
            .mean = wave_from_json(e.at("mean")),
            .stddev = wave_from_json(e.at("stddev")),
            .stats = stats_from_json(e.at("stats"))};
        r.probes.push_back(std::move(p));
    }
    for (const Value& e : v.at("trial_steps").as_array())
        r.trial_steps.push_back(e.as_int());
    return r;
}

Value em_result_to_json(const engines::EmEnsembleResult& r) {
    Value obj{Object{}};
    obj.set("grid", vector_to_json(r.grid));
    obj.set("mean", wave_to_json(r.mean));
    obj.set("stddev", wave_to_json(r.stddev));
    obj.set("stats", stats_to_json(r.stats));
    obj.set("aborted", Value(r.aborted));
    obj.set("flops", flops_to_json(r.flops));
    return obj;
}

engines::EmEnsembleResult em_result_from_json(const Value& v) {
    check_keys(v, {"grid", "mean", "stddev", "stats", "aborted", "flops"},
               "ensemble result");
    return engines::EmEnsembleResult{
        .grid = vector_from_json(v.at("grid")),
        .mean = wave_from_json(v.at("mean")),
        .stddev = wave_from_json(v.at("stddev")),
        .stats = stats_from_json(v.at("stats")),
        .aborted = v.at("aborted").as_bool(),
        .flops = flops_from_json(v.at("flops"))};
}

// ---------------------------------------------------------------------
// Header / report
// ---------------------------------------------------------------------

AnalysisKind kind_from(const std::string& name) {
    if (name == "op") return AnalysisKind::op;
    if (name == "dc") return AnalysisKind::dc_sweep;
    if (name == "tran") return AnalysisKind::tran;
    if (name == "mc") return AnalysisKind::monte_carlo;
    if (name == "em") return AnalysisKind::ensemble;
    throw ServiceError("unknown analysis kind \"" + name + "\"");
}

Value header_to_json(const AnalysisHeader& h) {
    Value obj{Object{}};
    obj.set("name", h.name);
    obj.set("kind", analysis_kind_name(h.kind));
    obj.set("engine", h.engine);
    obj.set("elapsed_s", Value(h.elapsed_s));
    obj.set("aborted", Value(h.aborted));
    obj.set("solver", solver_work_to_json(h.solver));
    obj.set("cache_signature", u64_value(h.cache_signature));
    return obj;
}

AnalysisHeader header_from_json(const Value& v) {
    check_keys(v,
               {"name", "kind", "engine", "elapsed_s", "aborted", "solver",
                "cache_signature"},
               "result header");
    AnalysisHeader h;
    h.name = v.at("name").as_string();
    h.kind = kind_from(v.at("kind").as_string());
    h.engine = v.at("engine").as_string();
    h.elapsed_s = v.at("elapsed_s").as_number();
    h.aborted = v.at("aborted").as_bool();
    h.solver = solver_work_from_json(v.at("solver"));
    h.cache_signature = u64_from(v.at("cache_signature"), "cache_signature");
    return h;
}

/// RunReport parsing mirrors RunReport::to_json (obs/report.cpp).  The
/// uint64 cache_signature in that encoding is a bare JSON number, lossy
/// past 2^53 — the header's string-capable copy is authoritative, so it
/// is restored from `header` instead.
obs::RunReport report_from_json(const Value& v, const AnalysisHeader& header) {
    check_keys(v,
               {"analysis", "kind", "engine", "elapsed_s", "aborted",
                "steps_accepted", "steps_rejected", "nr_iterations",
                "nonconverged_steps", "step_bounds", "min_dt", "max_dt",
                "rescues", "failed_trials", "trials", "cache_signature",
                "pool_tasks", "pool_queue_wait_s"},
               "run report", solver_work_key);
    obs::RunReport r;
    r.analysis = v.at("analysis").as_string();
    r.kind = v.at("kind").as_string();
    r.engine = v.at("engine").as_string();
    r.elapsed_s = v.at("elapsed_s").as_number();
    r.aborted = v.at("aborted").as_bool();
    r.steps_accepted = u64_from(v.at("steps_accepted"), "steps_accepted");
    r.steps_rejected = u64_from(v.at("steps_rejected"), "steps_rejected");
    r.nr_iterations = u64_from(v.at("nr_iterations"), "nr_iterations");
    r.nonconverged_steps =
        u64_from(v.at("nonconverged_steps"), "nonconverged_steps");
    r.bounds = bounds_from_json(v.at("step_bounds"));
    r.min_dt = v.at("min_dt").as_number();
    r.max_dt = v.at("max_dt").as_number();
    r.rescues = rescues_from_json(v.at("rescues"));
    r.failed_trials = u64_from(v.at("failed_trials"), "failed_trials");
    r.trials = u64_from(v.at("trials"), "trials");
    read_solver_work(v, r);
    r.cache_signature = header.cache_signature;
    r.pool_tasks = u64_from(v.at("pool_tasks"), "pool_tasks");
    r.pool_queue_wait_s = v.at("pool_queue_wait_s").as_number();
    return r;
}

// ---------------------------------------------------------------------
// FNV-1a (the signature convention the solver caches use)
// ---------------------------------------------------------------------

std::uint64_t fnv1a(const std::string& text) {
    std::uint64_t h = 14695981039346656037ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

} // namespace

// ---------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------

Value spec_to_json(const AnalysisSpec& spec) {
    return std::visit(
        [](const auto& s) -> Value {
            using T = std::decay_t<decltype(s)>;
            if constexpr (std::is_same_v<T, OpSpec>) {
                return op_to_json(s);
            } else if constexpr (std::is_same_v<T, DcSweepSpec>) {
                return dc_to_json(s);
            } else if constexpr (std::is_same_v<T, TranSpec>) {
                return tran_to_json(s);
            } else if constexpr (std::is_same_v<T, MonteCarloSpec>) {
                return mc_to_json(s);
            } else {
                return em_to_json(s);
            }
        },
        spec);
}

AnalysisSpec spec_from_json(const Value& v) {
    const std::string& kind = v.at("kind").as_string();
    switch (kind_from(kind)) {
    case AnalysisKind::op: return op_from_json(v);
    case AnalysisKind::dc_sweep: return dc_from_json(v);
    case AnalysisKind::tran: return tran_from_json(v);
    case AnalysisKind::monte_carlo: return mc_from_json(v);
    case AnalysisKind::ensemble: return em_from_json(v);
    }
    throw ServiceError("unknown analysis kind \"" + kind + "\"");
}

Value result_to_json(const AnalysisResult& result) {
    Value obj{Object{}};
    obj.set("header", header_to_json(result.header));
    Value payload = std::visit(
        [](const auto& p) -> Value {
            using T = std::decay_t<decltype(p)>;
            if constexpr (std::is_same_v<T, engines::DcResult>) {
                return dc_result_to_json(p);
            } else if constexpr (std::is_same_v<T, engines::SweepResult>) {
                return sweep_result_to_json(p);
            } else if constexpr (std::is_same_v<T, engines::TranResult>) {
                return tran_result_to_json(p);
            } else if constexpr (std::is_same_v<T, engines::McResult>) {
                return mc_result_to_json(p);
            } else {
                return em_result_to_json(p);
            }
        },
        result.payload);
    obj.set("payload", std::move(payload));
    // Reuse the report's own deterministic serializer; parsing it back
    // through the strict document parser keeps the two formats honest.
    obj.set("report", json::parse(result.report.to_json()));
    return obj;
}

AnalysisResult result_from_json(const Value& v) {
    check_keys(v, {"header", "payload", "report"}, "analysis result");
    AnalysisResult r;
    r.header = header_from_json(v.at("header"));
    const Value& payload = v.at("payload");
    switch (r.header.kind) {
    case AnalysisKind::op:
        r.payload = dc_result_from_json(payload);
        break;
    case AnalysisKind::dc_sweep:
        r.payload = sweep_result_from_json(payload);
        break;
    case AnalysisKind::tran:
        r.payload = tran_result_from_json(payload);
        break;
    case AnalysisKind::monte_carlo:
        r.payload = mc_result_from_json(payload);
        break;
    case AnalysisKind::ensemble:
        r.payload = em_result_from_json(payload);
        break;
    }
    r.report = report_from_json(v.at("report"), r.header);
    return r;
}

// ---------------------------------------------------------------------
// Monte-Carlo checkpoints
// ---------------------------------------------------------------------

Value checkpoint_to_json(const engines::McCheckpoint& cp) {
    Value obj{Object{}};
    obj.set("base_seed", u64_value(cp.base_seed));
    obj.set("next_trial", Value(cp.next_trial));
    obj.set("runs", Value(cp.runs));
    obj.set("grid_points", Value(static_cast<double>(cp.grid_points)));
    obj.set("primary", ens_state_to_json(cp.primary));
    Array probes;
    probes.reserve(cp.probes.size());
    for (const engines::McEnsembleState& p : cp.probes) {
        probes.push_back(ens_state_to_json(p));
    }
    obj.set("probes", Value(std::move(probes)));
    Array steps;
    steps.reserve(cp.trial_steps.size());
    for (int s : cp.trial_steps) steps.emplace_back(s);
    obj.set("trial_steps", Value(std::move(steps)));
    obj.set("failed_trials", failed_trials_to_json(cp.failed_trials));
    obj.set("flops", flops_to_json(cp.flops));
    obj.set("rescues", rescues_to_json(cp.rescues));
    return obj;
}

engines::McCheckpoint checkpoint_from_json(const Value& v) {
    check_keys(v,
               {"base_seed", "next_trial", "runs", "grid_points", "primary",
                "probes", "trial_steps", "failed_trials", "flops",
                "rescues"},
               "mc checkpoint");
    engines::McCheckpoint cp;
    cp.base_seed = u64_from(v.at("base_seed"), "checkpoint.base_seed");
    cp.next_trial = v.at("next_trial").as_int();
    cp.runs = v.at("runs").as_int();
    cp.grid_points = static_cast<std::size_t>(v.at("grid_points").as_uint());
    cp.primary = ens_state_from_json(v.at("primary"));
    for (const Value& e : v.at("probes").as_array()) {
        cp.probes.push_back(ens_state_from_json(e));
    }
    for (const Value& e : v.at("trial_steps").as_array()) {
        cp.trial_steps.push_back(e.as_int());
    }
    cp.failed_trials = failed_trials_from_json(v.at("failed_trials"));
    cp.flops = flops_from_json(v.at("flops"));
    cp.rescues = rescues_from_json(v.at("rescues"));
    return cp;
}

// ---------------------------------------------------------------------
// CircuitSource
// ---------------------------------------------------------------------

std::string CircuitSource::canonical() const {
    if (builtin.empty() == deck.empty()) {
        throw ServiceError("circuit source wants exactly one of "
                           "\"builtin\" or \"deck\"");
    }
    std::string text =
        builtin.empty() ? "deck\n" + deck : "builtin:" + builtin;
    // Sorted so two clients listing the same injections in a different
    // order still share a session.
    std::vector<std::string> entries;
    entries.reserve(noise.size());
    for (const NoiseInjection& n : noise) {
        entries.push_back(n.node + ":" + json::number_to_string(n.sigma));
    }
    std::sort(entries.begin(), entries.end());
    for (const std::string& e : entries) {
        text += "\n+noise:" + e;
    }
    return text;
}

std::uint64_t CircuitSource::signature() const {
    return fnv1a(canonical());
}

Circuit CircuitSource::build() const {
    if (builtin.empty() == deck.empty()) {
        throw ServiceError("circuit source wants exactly one of "
                           "\"builtin\" or \"deck\"");
    }
    Circuit ckt = builtin.empty() ? parse_deck(deck).circuit
                                  : refckt::builtin_circuit(builtin);
    int index = 0;
    for (const NoiseInjection& n : noise) {
        if (!(n.sigma > 0.0)) {
            throw ServiceError("noise injection on \"" + n.node +
                               "\" wants sigma > 0");
        }
        // find_node throws NetlistError on an unknown node.
        ckt.add<NoiseCurrentSource>("NOISEW" + std::to_string(++index),
                                    k_ground, ckt.find_node(n.node),
                                    n.sigma);
    }
    return ckt;
}

Value CircuitSource::to_json() const {
    Value obj{Object{}};
    if (!builtin.empty()) obj.set("builtin", builtin);
    if (!deck.empty()) obj.set("deck", deck);
    if (!noise.empty()) {
        Array arr;
        arr.reserve(noise.size());
        for (const NoiseInjection& n : noise) {
            Value e{Object{}};
            e.set("node", n.node);
            e.set("sigma", Value(n.sigma));
            arr.push_back(std::move(e));
        }
        obj.set("noise", Value(std::move(arr)));
    }
    return obj;
}

CircuitSource CircuitSource::from_json(const Value& v) {
    check_keys(v, {"builtin", "deck", "noise"}, "circuit source");
    CircuitSource src;
    if (const Value* p = v.find("builtin")) src.builtin = p->as_string();
    if (const Value* p = v.find("deck")) src.deck = p->as_string();
    if (src.builtin.empty() == src.deck.empty()) {
        throw ServiceError("circuit source wants exactly one of "
                           "\"builtin\" or \"deck\"");
    }
    if (const Value* p = v.find("noise")) {
        for (const Value& e : p->as_array()) {
            check_keys(e, {"node", "sigma"}, "noise injection");
            src.noise.push_back(NoiseInjection{e.at("node").as_string(),
                                              e.at("sigma").as_number()});
        }
    }
    return src;
}

} // namespace nanosim::service::wire
