#include "ask/config.h"

#include "common/logging.h"

namespace ask::core {

void
AskConfig::validate() const
{
    if (num_aas == 0 || num_aas > 64)
        fail_config("num_aas must be 1..64 (bitmap is 64 bits wide): ", num_aas);
    if (part_bits != 16 && part_bits != 32)
        fail_config("part_bits must be 16 or 32: ", part_bits);
    if (medium_segments < 1)
        fail_config("medium_segments must be >= 1");
    if (medium_aas() > num_aas)
        fail_config("medium groups (", medium_aas(), " AAs) exceed num_aas (",
              num_aas, ")");
    if (medium_groups > 0 && short_aas() == 0)
        fail_config("no AAs left for short keys");
    if (shadow_copies && aggregators_per_aa % 2 != 0)
        fail_config("aggregators_per_aa must be even with shadow copies");
    if (aggregators_per_aa == 0)
        fail_config("aggregators_per_aa must be positive");
    if (window == 0 || (window & (window - 1)) != 0)
        fail_config("window must be a positive power of two: ", window);
    if (channels_per_host == 0)
        fail_config("channels_per_host must be positive");
    if (max_hosts == 0)
        fail_config("max_hosts must be positive");
    if (max_fin_tries == 0)
        fail_config("max_fin_tries must be positive");
    if (mgmt_max_tries == 0)
        fail_config("mgmt_max_tries must be positive");
    if (mgmt_backoff_cap_ns <= 0)
        fail_config("mgmt_backoff_cap_ns must be positive");
    if (sender_liveness_timeout_ns < 0)
        fail_config("sender_liveness_timeout_ns must be non-negative");
    if (static_cast<std::uint8_t>(op) >= kNumReduceOps)
        fail_config("unknown reduce op id: ", static_cast<unsigned>(op));
    if (op == ReduceOp::kFloat && part_bits != 32)
        fail_config("kFloat fixed-point reduction requires 32-bit vParts "
                    "(part_bits == 32), got ", part_bits);
}

}  // namespace ask::core
