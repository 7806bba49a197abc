/**
 * @file
 * Fundamental types of the ASK service.
 */
#ifndef ASK_ASK_TYPES_H
#define ASK_ASK_TYPES_H

#include <compare>
#include <cstdint>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

namespace ask::core {

namespace detail {

/**
 * A strongly typed index: wraps a dense std::uint32_t so that host,
 * switch, and rack indices are distinct types the compiler keeps apart —
 * `daemon(HostId)` cannot be called with a SwitchId, and a RackId cannot
 * silently flow into a host-indexed array.
 *
 * Deprecation note (back-compat shim): construction from a raw
 * std::uint32_t is *implicit* so the pre-fabric API surface
 * (`submit_task(1, 0, ...)`, `StreamSpec{.host = 2}`) keeps compiling
 * unchanged. New code should spell the type (`HostId{2}`); the implicit
 * conversion is scheduled to become explicit once in-tree callers have
 * migrated. The reverse direction (id -> integer) is explicit via
 * value(), so two different id types never cross-assign.
 */
template <class Tag>
class StrongId
{
  public:
    constexpr StrongId() = default;
    constexpr StrongId(std::uint32_t raw) : raw_(raw) {}  // NOLINT(implicit)

    /** The underlying dense index (explicit escape hatch). */
    constexpr std::uint32_t value() const { return raw_; }
    constexpr explicit operator std::uint32_t() const { return raw_; }

    constexpr auto operator<=>(const StrongId&) const = default;

    friend std::ostream&
    operator<<(std::ostream& os, StrongId id)
    {
        return os << id.raw_;
    }

  private:
    std::uint32_t raw_ = 0;
};

}  // namespace detail

/** A server (daemon) index, dense in [0, num_hosts). */
using HostId = detail::StrongId<struct HostIdTag>;
/** A switch index: ToRs are [0, num_racks), the aggregation-tier switch
 *  (multi-rack fabrics only) follows them. */
using SwitchId = detail::StrongId<struct SwitchIdTag>;
/** A rack index, dense in [0, num_racks). */
using RackId = detail::StrongId<struct RackIdTag>;

/**
 * An application key: a non-empty byte string containing no NUL bytes.
 *
 * The NUL restriction comes from the data plane: aggregator kParts use an
 * all-zero segment to mean "blank", and key padding uses NUL bytes
 * (paper §3.2.3 pads keys to the aggregator width). Numeric keys should
 * be encoded with ask::u64_key().
 */
using Key = std::string;

/** A 32-bit value, matching the switch register vPart width. Sums wrap
 *  modulo 2^32 exactly as they would on the Tofino ALU. */
using Value = std::uint32_t;

/** One key-value tuple of a stream. */
struct KvTuple
{
    Key key;
    Value value = 0;

    bool
    operator==(const KvTuple& o) const
    {
        return key == o.key && value == o.value;
    }
};

/** A key-value stream: the unit applications hand to ASK (paper Eq. 1). */
using KvStream = std::vector<KvTuple>;

/** Aggregation result: key -> accumulated value (host accumulates in 64
 *  bits; the on-switch portion wraps at 32 bits per register semantics). */
using AggregateMap = std::unordered_map<Key, std::uint64_t>;

/** Identifies an aggregation task cluster-wide. */
using TaskId = std::uint32_t;

/** Cluster-wide data-channel id: host * channels_per_host + local index. */
using ChannelId = std::uint16_t;

/** Per-channel packet sequence number. */
using Seq = std::uint32_t;

/**
 * Reduction operator bound to a task's aggregation domain.
 *
 * The enum splits into a *lift* (applied once when a raw tuple enters
 * the domain — see reduce_lift()) and a binary *combine* (apply_op()):
 *
 *  - kAdd:   lift = identity, combine = 32-bit wrapping add.
 *  - kMax:   lift = identity, combine = unsigned max (idempotent).
 *  - kMin:   lift = identity, combine = unsigned min (idempotent).
 *  - kCount: lift = v |-> 1,  combine = add — partial counts from
 *            different shards add, so the switch ALU stays a sum.
 *  - kFloat: fixed-point gradients. Values are Q-format two's
 *            complement (kFloatFracBits fractional bits, see
 *            float_encode()); combine is the same wrapping 32-bit
 *            add, which handles negatives for free. Requires 32-bit
 *            vParts (part_bits == 32).
 *
 * The numeric ids are wire format (carried in the frame type byte) and
 * WAL format: existing values must never be renumbered.
 */
enum class ReduceOp : std::uint8_t
{
    kAdd = 0,
    kMax = 1,
    kMin = 2,
    kCount = 3,
    kFloat = 4,
};

/** One past the largest valid ReduceOp id (wire validation bound). */
inline constexpr std::uint8_t kNumReduceOps = 5;

/** Short lower-case name ("sum", "max", "min", "count", "float"). */
const char* reduce_op_name(ReduceOp op);

/** Parse a name as printed by reduce_op_name() ("add" also accepted
 *  for kAdd). Returns false on unknown names. */
bool parse_reduce_op(const std::string& name, ReduceOp& out);

/** True when re-applying an already-merged contribution cannot change
 *  the aggregate (min/max). Non-idempotent ops lean on the seen-window
 *  for exactly-once; idempotent ops would survive replay regardless. */
constexpr bool
reduce_op_idempotent(ReduceOp op)
{
    return op == ReduceOp::kMax || op == ReduceOp::kMin;
}

/** Identity element of the *combine*: folding it in leaves any
 *  aggregate unchanged. (Empty windows fold to no entry at all; the
 *  identity exists so property tests can state that law.) */
constexpr Value
reduce_identity(ReduceOp op)
{
    return op == ReduceOp::kMin ? ~static_cast<Value>(0)
                                : static_cast<Value>(0);
}

/** Lift a raw tuple value into the aggregation domain. Applied exactly
 *  once per tuple, at the point it first enters a fold (sender
 *  packetization feeds the switch raw; the receiver lifts on decode).
 *  Count maps every observation to 1; all other ops are identity. */
constexpr Value
reduce_lift(ReduceOp op, Value v)
{
    return op == ReduceOp::kCount ? static_cast<Value>(1) : v;
}

/** 64-bit lift for host-side folds. */
constexpr std::uint64_t
reduce_lift64(ReduceOp op, std::uint64_t v)
{
    return op == ReduceOp::kCount ? static_cast<std::uint64_t>(1) : v;
}

/** Apply a ReduceOp *combine* to two 32-bit operands (the switch ALU
 *  semantics). Operands must already be lifted. */
inline Value
apply_op(ReduceOp op, Value acc, Value v)
{
    switch (op) {
      case ReduceOp::kAdd:
      case ReduceOp::kCount:
      case ReduceOp::kFloat:
        return static_cast<Value>(acc + v);  // wraps mod 2^32
      case ReduceOp::kMax:
        return acc > v ? acc : v;
      case ReduceOp::kMin:
        return acc < v ? acc : v;
    }
    return acc;
}

// ---- fixed-point float encoding (kFloat) ---------------------------------

/** Fractional bits of the kFloat encoding that hosts use: Q16.16. */
inline constexpr std::uint32_t kFloatFracBits = 16;

/** Encode a real number as Q-format two's complement with `frac_bits`
 *  fractional bits (round to nearest, saturating at the int32 range).
 *  The switch's wrapping 32-bit add then sums encodings exactly. */
Value float_encode(double x, std::uint32_t frac_bits);

/** Decode a Q-format word back to a real number (sign-extending). A
 *  64-bit host aggregate decodes through its low 32 bits — kFloat
 *  arithmetic is defined modulo 2^32 end-to-end, like the switch. */
double float_decode(std::uint64_t v, std::uint32_t frac_bits);

// ---- host-side folds -----------------------------------------------------

/** Combine one already-lifted observation into a 64-bit host-side
 *  aggregate map (first observation of a key is stored as-is). */
void accumulate(AggregateMap& acc, const Key& key, std::uint64_t value,
                ReduceOp op);

/** Fold a *raw* stream on the host: lifts every tuple, then combines.
 *  This is the reference aggregation (ground truth for tests) and the
 *  receiver-side fold for tuples arriving straight from senders. */
void aggregate_into(AggregateMap& acc, const KvStream& stream, ReduceOp op);

/** Fold a stream of *partials* (switch fetches, tier drains): combines
 *  without lifting — a count partial is already a count, not a raw
 *  observation. For every op except kCount this matches
 *  aggregate_into(); splitting the two keeps lift exactly-once. */
void merge_stream_into(AggregateMap& acc, const KvStream& stream,
                       ReduceOp op);

/** Merge the partials in `from` into `acc` (combine only, no lift). */
void merge_into(AggregateMap& acc, const AggregateMap& from, ReduceOp op);

}  // namespace ask::core

namespace ask {
// The id types are part of the service's top-level vocabulary.
using core::HostId;
using core::RackId;
using core::SwitchId;
}  // namespace ask

#endif  // ASK_ASK_TYPES_H
