#include "net/fault_model.h"

namespace ask::net {

FaultModel::FaultModel(FaultSpec spec, std::uint64_t seed)
    : spec_(spec), rng_(seed)
{
}

Nanoseconds
FaultModel::extra_delay()
{
    const FaultSpec& s = active_spec();
    if (s.reorder_prob > 0.0 && rng_.chance(s.reorder_prob)) {
        ++delayed_;
        return static_cast<Nanoseconds>(
            rng_.next_exponential(static_cast<double>(s.reorder_delay_ns)));
    }
    return 0;
}

Deliveries
FaultModel::deliveries()
{
    const FaultSpec& s = active_spec();
    if (override_)
        ++overridden_tx_;
    Deliveries out;
    if (rng_.chance(s.loss_prob)) {
        ++dropped_;
        return out;
    }
    out.push_back(extra_delay());
    if (rng_.chance(s.dup_prob)) {
        ++duplicated_;
        out.push_back(extra_delay());
    }
    return out;
}

}  // namespace ask::net
