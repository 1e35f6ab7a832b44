#include "engines/sweep_source.hpp"

#include <memory>

#include "devices/sources.hpp"
#include "util/error.hpp"

namespace nanosim::engines {

void set_source_level(Circuit& circuit, const std::string& source,
                      double level) {
    if (const Device* d = circuit.find(source); d != nullptr) {
        if (d->kind() == DeviceKind::vsource) {
            circuit.get_mutable<VSource>(source).set_wave(
                std::make_shared<DcWave>(level));
            return;
        }
        if (d->kind() == DeviceKind::isource) {
            circuit.get_mutable<ISource>(source).set_wave(
                std::make_shared<DcWave>(level));
            return;
        }
    }
    throw NetlistError("dc sweep: '" + source + "' is not a V or I source");
}

SourceWaveGuard::SourceWaveGuard(Circuit& circuit, const std::string& source)
    : circuit_(&circuit), source_(source) {
    if (const Device* d = circuit.find(source); d != nullptr) {
        if (d->kind() == DeviceKind::vsource) {
            saved_ = circuit.get_mutable<VSource>(source).wave_ptr();
            is_vsource_ = true;
            return;
        }
        if (d->kind() == DeviceKind::isource) {
            saved_ = circuit.get_mutable<ISource>(source).wave_ptr();
            return;
        }
    }
    throw NetlistError("dc sweep: '" + source +
                       "' is not a V or I source");
}

SourceWaveGuard::~SourceWaveGuard() {
    if (is_vsource_) {
        circuit_->get_mutable<VSource>(source_).set_wave(saved_);
    } else {
        circuit_->get_mutable<ISource>(source_).set_wave(saved_);
    }
}

} // namespace nanosim::engines
