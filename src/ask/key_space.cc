#include "ask/key_space.h"

#include "common/hash.h"
#include "common/logging.h"

namespace ask::core {

KeySpace::KeySpace(const AskConfig& config)
    : config_(config),
      part_seed_mixed_(mix64(hash_seeds::kKeyPartition)),
      agg_seed_mixed_(mix64(hash_seeds::kAggregatorAddress))
{
    config_.validate();
}

void
KeySpace::check_key(const Key& key) const
{
    if (key.empty())
        fail_state("ASK keys must be non-empty");
    if (key.find('\0') != std::string::npos)
        fail_state("ASK keys must not contain NUL bytes (see ask/types.h)");
}

KeyClass
KeySpace::classify(const Key& key) const
{
    check_key(key);
    if (key.size() <= config_.seg_bytes())
        return KeyClass::kShort;
    if (config_.medium_groups > 0 && key.size() <= config_.max_medium_key_bytes())
        return KeyClass::kMedium;
    return KeyClass::kLong;
}

std::uint32_t
KeySpace::short_slot(const Key& key) const
{
    ASK_ASSERT(classify(key) == KeyClass::kShort, "not a short key");
    return bucket(hash64_premixed(key, part_seed_mixed_), config_.short_aas());
}

Key
KeySpace::decode_key(std::span<const std::uint32_t> segs) const
{
    std::size_t nb = config_.seg_bytes();
    Key key(segs.size() * nb, '\0');
    for (std::size_t j = 0; j < segs.size(); ++j)
        decode_segment_into(segs[j], key.data() + j * nb);
    // Keys hold no NUL (check_key), so every trailing NUL is padding.
    std::size_t end = key.size();
    while (end > 0 && key[end - 1] == '\0')
        --end;
    key.resize(end);
    return key;
}

}  // namespace ask::core
