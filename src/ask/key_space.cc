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

std::uint32_t
KeySpace::medium_group(const Key& key) const
{
    ASK_ASSERT(classify(key) == KeyClass::kMedium, "not a medium key");
    return bucket(hash64_premixed(key, part_seed_mixed_),
                  config_.medium_groups);
}

std::string
KeySpace::padded(const Key& key) const
{
    KeyClass cls = classify(key);
    ASK_ASSERT(cls != KeyClass::kLong, "long keys have no padded wire form");
    std::size_t width = cls == KeyClass::kShort
                            ? config_.seg_bytes()
                            : config_.max_medium_key_bytes();
    std::string out = key;
    out.resize(width, '\0');
    return out;
}

Key
KeySpace::unpad(std::string_view padded)
{
    std::size_t end = padded.size();
    while (end > 0 && padded[end - 1] == '\0')
        --end;
    return Key(padded.substr(0, end));
}

std::uint32_t
KeySpace::encode_segment(std::string_view padded_key,
                         std::uint32_t seg_index) const
{
    std::uint32_t nb = config_.seg_bytes();
    std::size_t off = static_cast<std::size_t>(seg_index) * nb;
    ASK_ASSERT(off + nb <= padded_key.size(), "segment out of range");
    std::uint32_t v = 0;
    for (std::uint32_t i = 0; i < nb; ++i) {
        v |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(padded_key[off + i]))
             << (8 * i);
    }
    return v;
}

std::string
KeySpace::decode_segment(std::uint32_t seg) const
{
    std::string out(config_.seg_bytes(), '\0');
    decode_segment_into(seg, out.data());
    return out;
}


std::vector<std::uint32_t>
KeySpace::segments(const Key& key) const
{
    std::string p = padded(key);
    std::uint32_t count =
        static_cast<std::uint32_t>(p.size() / config_.seg_bytes());
    std::vector<std::uint32_t> segs(count);
    for (std::uint32_t i = 0; i < count; ++i)
        segs[i] = encode_segment(p, i);
    return segs;
}


}  // namespace ask::core
