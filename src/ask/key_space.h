/**
 * @file
 * Key classification, key-space partition, and segment encoding
 * (paper §3.2.2 and §3.2.3).
 *
 * The whole key space splits into short keys (fit one aggregator kPart),
 * medium keys (fit one coalesced group of m adjacent AAs), and long keys
 * (bypass the switch). Short and medium subspaces are further partitioned
 * by a sender-side hash so that a key always lands in the same payload
 * slot and hence the same AA — avoiding the single-key-multiple-spot
 * problem.
 */
#ifndef ASK_ASK_KEY_SPACE_H
#define ASK_ASK_KEY_SPACE_H

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "ask/config.h"
#include "ask/types.h"
#include "common/hash.h"
#include "common/logging.h"

namespace ask::core {

/** Where a key is processed. */
enum class KeyClass : std::uint8_t
{
    kShort,   ///< <= n bits: one aggregator in a short AA
    kMedium,  ///< (n, n*m] bits: one coalesced medium group
    kLong,    ///< > n*m bits: bypasses the switch entirely
};

/** Where the sender puts a key: its class, and its short slot or
 *  medium group (0 for a long key). */
struct KeyPlace
{
    KeyClass cls = KeyClass::kLong;
    std::uint32_t index = 0;
};

/**
 * Pure functions mapping keys to classes, slots, and wire segments.
 * Sender, switch, and receiver all consult the same KeySpace, which is
 * fully determined by the AskConfig.
 */
class KeySpace
{
  public:
    explicit KeySpace(const AskConfig& config);

    /** Classify a key by its length. Throws StateError on invalid keys
     *  (empty or containing NUL bytes) — the caller decides whether a
     *  bad key fails the task or the process. */
    KeyClass classify(const Key& key) const;

    /**
     * Validate, classify and partition-hash a key in one call, the
     * sender's per-tuple entry point: {kShort, short_slot(key)} for a
     * short key, {kMedium, g} for a medium one, which occupies payload
     * slots [medium_base(g), medium_base(g) + m), and {kLong, 0} for a
     * long one. Throws StateError like classify().
     */
    KeyPlace place(const Key& key) const;

    /** Subspace (== AA index == payload slot) of a *short* key. */
    std::uint32_t short_slot(const Key& key) const;

    /**
     * Wire segment `seg_index` of a key: bytes [seg_index * seg_bytes(),
     * (seg_index + 1) * seg_bytes()) of the key NUL-padded to its class
     * width (one segment for a short key, m for a medium one), as a
     * little-endian integer.
     */
    std::uint32_t encode_key_segment(std::string_view key,
                                     std::uint32_t seg_index) const;

    /** Decode a segment integer into `out`, which must hold seg_bytes(). */
    void decode_segment_into(std::uint32_t seg, char* out) const;

    /**
     * The key whose wire segments are `segs`, in slot order (one for a
     * short key, m for a medium one): their bytes with the NUL padding
     * stripped. The inverse of encode_key_segment().
     */
    Key decode_key(std::span<const std::uint32_t> segs) const;

    /** Aggregator index (within one shadow copy of size `copy_len`) that
     *  the switch addresses this key to. `padded_key` is the wire form:
     *  the bytes of the key's segments, NUL padding included. */
    std::uint32_t aggregator_index(std::string_view padded_key,
                                   std::uint32_t copy_len) const;

    /**
     * Aggregator index of a *short* key given its wire segment: hashes
     * the segment's seg_bytes() padded bytes from a stack buffer, without
     * a per-tuple string allocation.
     */
    std::uint32_t short_aggregator_index(std::uint32_t seg,
                                         std::uint32_t copy_len) const;

    const AskConfig& config() const { return config_; }

  private:
    void check_key(const Key& key) const;

    /** h % n, taken with a mask when n is a power of two: the same
     *  bucket without a 64-bit divide per tuple. */
    static std::uint32_t bucket(std::uint64_t h, std::uint32_t n)
    {
        if ((n & (n - 1)) == 0)
            return static_cast<std::uint32_t>(h & (n - 1));
        return static_cast<std::uint32_t>(h % n);
    }

    AskConfig config_;
    /** mix64 of the partition and addressing seeds, hoisted out of the
     *  per-tuple hashes. */
    std::uint64_t part_seed_mixed_;
    std::uint64_t agg_seed_mixed_;
};

// ---- hot-path members, inline: one call per tuple each ------------------

inline KeyPlace
KeySpace::place(const Key& key) const
{
    check_key(key);
    if (key.size() <= config_.seg_bytes()) {
        return KeyPlace{KeyClass::kShort,
                        bucket(hash64_premixed(key, part_seed_mixed_),
                               config_.short_aas())};
    }
    if (config_.medium_groups > 0 &&
        key.size() <= config_.max_medium_key_bytes()) {
        return KeyPlace{KeyClass::kMedium,
                        bucket(hash64_premixed(key, part_seed_mixed_),
                               config_.medium_groups)};
    }
    return KeyPlace{KeyClass::kLong, 0};
}

inline void
KeySpace::decode_segment_into(std::uint32_t seg, char* out) const
{
    for (std::uint32_t i = 0; i < config_.seg_bytes(); ++i)
        out[i] = static_cast<char>((seg >> (8 * i)) & 0xff);
}

inline std::uint32_t
KeySpace::encode_key_segment(std::string_view key,
                             std::uint32_t seg_index) const
{
    // The padded wire form is the key followed by NUL fill, so only the
    // key's own bytes in this segment contribute.
    std::size_t nb = config_.seg_bytes();
    std::size_t off = static_cast<std::size_t>(seg_index) * nb;
    std::size_t end = std::min(key.size(), off + nb);
    std::uint32_t v = 0;
    for (std::size_t i = off; i < end; ++i) {
        v |= static_cast<std::uint32_t>(static_cast<unsigned char>(key[i]))
             << (8 * (i - off));
    }
    return v;
}

inline std::uint32_t
KeySpace::aggregator_index(std::string_view padded_key,
                           std::uint32_t copy_len) const
{
    ASK_ASSERT(copy_len > 0, "empty aggregator region");
    // The "unified" index of §3.2.3: the entire (padded) key is hashed,
    // so every segment of a medium key lands at the same index in each AA
    // of its group. Uses the addressing seed, independent from the
    // partition seed (see common/hash.h). Regions are powers of two in
    // every stock allocation, where the reduction is a mask.
    return bucket(hash64_premixed(padded_key, agg_seed_mixed_), copy_len);
}

inline std::uint32_t
KeySpace::short_aggregator_index(std::uint32_t seg,
                                 std::uint32_t copy_len) const
{
    char buf[sizeof(seg)];
    decode_segment_into(seg, buf);
    return aggregator_index(std::string_view(buf, config_.seg_bytes()),
                            copy_len);
}

}  // namespace ask::core

#endif  // ASK_ASK_KEY_SPACE_H
