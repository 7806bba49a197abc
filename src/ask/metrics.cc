#include "ask/metrics.h"

#include "obs/metrics.h"

namespace ask::core {

#define ASK_ADD_COUNTER(field, doc) \
    snap.add_counter(prefix + #field, stats.field);

void
add_counters(obs::MetricsSnapshot& snap, const std::string& prefix,
             const SwitchAggStats& stats)
{
    ASK_SWITCH_AGG_STATS_FIELDS(ASK_ADD_COUNTER)
}

void
add_counters(obs::MetricsSnapshot& snap, const std::string& prefix,
             const HostStats& stats)
{
    ASK_HOST_STATS_FIELDS(ASK_ADD_COUNTER)
}

void
add_counters(obs::MetricsSnapshot& snap, const std::string& prefix,
             const ChaosStats& stats)
{
    ASK_CHAOS_STATS_FIELDS(ASK_ADD_COUNTER)
}

#undef ASK_ADD_COUNTER

}  // namespace ask::core
