/**
 * @file
 * Host-side write-ahead logging for crash durability.
 *
 * The paper's reliability story covers packet loss (seq windows +
 * retransmission) and switch-memory loss (reboot recovery + replay),
 * but a crashed *host* was fatal: partial aggregates, per-channel seq
 * fences, and the controller's allocation journal lived only in
 * memory. This file adds the missing layer — a deterministic,
 * simulated-time write-ahead log each host process appends to *before*
 * acting, so a restart can rebuild exactly the state the log claims.
 *
 * Records are framed `[u32 len][u32 check][payload]` (little-endian)
 * over an in-memory byte image, mirroring an appended file. Every
 * integer inside a payload is unsigned LEB128, so a journaled tuple
 * whose key length and value are below 128 costs its key plus two
 * bytes. Integrity is merkle-style: every record payload is hashed
 * (wal_payload_hash, eight bytes per step) into a log-segment hash
 * list, and the root digest folds those hashes in order. Replay
 * distinguishes the two corruption classes a real log sees:
 *
 *  - a *torn tail* — the crash landed mid-append, so the byte image is
 *    a proper prefix of what the segment list describes. Tolerated:
 *    the parsed records verify element-wise against a prefix of the
 *    hash list, and recovery proceeds from the last durable record.
 *  - a *corrupt record* — bytes inside a framed record changed. The
 *    payload hash no longer matches its log segment; replay reports
 *    (or throws) a typed StateError and recovery aborts the host's
 *    tasks rather than rebuilding silently-wrong state.
 *
 * Each receive-task record has one transition: start_rx_task() opens
 * a task's durable state (WalRxTaskState) from its start record, and
 * apply_rx() advances it by one data, fin, swap-commit or reset record.
 * The live daemon appends a record and then applies that same record;
 * rebuild_daemon_state() is the pure fold that applies every record of
 * a log (plus the send archives and seq checkpoints).
 * So a daemon rebuilt from its log equals the live one, and folding the
 * same log twice gives operator==-identical state.
 *
 * The log is bounded by in-flight work, not by run length. A record
 * is *retired* once a later record makes it irrelevant to every fold
 * (the liveness rule, next to rebuild_daemon_state in wal.cc): a task's
 * done record retires its receive records, a forget retires its
 * submits, a release retires its alloc, a checkpoint retires the
 * channel's lower ones. Once retired bytes reach live bytes the image
 * is rewritten with the live records in order, so the segment list and
 * the root digest commit to the live log.
 */
#ifndef ASK_ASK_WAL_H
#define ASK_ASK_WAL_H

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ask/seen_window.h"
#include "ask/types.h"
#include "common/units.h"
#include "obs/json.h"

namespace ask::core {

/** What one WAL record describes, and which WalRecord fields it uses
 *  (task is always the task; unnamed fields stay 0). Values are part of
 *  the on-log encoding; append only. "Retired by" names the later
 *  record that makes a record dead (the liveness rule, see Wal). */
enum class WalRecordKind : std::uint8_t
{
    /** Controller: region allocated. arg0 = base, arg1 = len, arg2 =
     *  epoch slot, op. Retired by the kRelease of the same task and
     *  base. */
    kAlloc = 1,
    /** Controller: region released (task completed or aborted). arg0 =
     *  base. Retires its kAlloc and itself. */
    kRelease = 2,
    /** Sender: stream accepted for transmission. arg0 = receiver node,
     *  op; tuples = the stream, already lifted (replay cursor source —
     *  a replay must not lift again). Retired by the task's
     *  kSendForget. */
    kSendSubmit = 3,
    /** Sender: archived stream dropped (receiver finished the task).
     *  Retires the task's earlier submits and itself. */
    kSendForget = 4,
    /** Sender: all seqs below `seq` on `channel` are or may be in
     *  use; a restarted channel must resume at `seq`. Retires the
     *  channel's earlier checkpoints whose seq is <= its own. */
    kSeqCheckpoint = 5,
    /** Receiver: task accepted (start_rx_task). arg0 = expected
     *  senders, arg1 = 1 if the swap policy is kDisabled, arg2 = start
     *  time, op. Receiver records (this and the four below) are retired
     *  by the task's kRxTaskDone. */
    kRxTaskStart = 6,
    /** Receiver: fresh DATA packet consumed (apply_rx). channel + seq
     *  are observed into the channel's dedup window; tuples = the
     *  decoded tuples it contributed. */
    kRxData = 7,
    /** Receiver: FIN consumed from `channel` (apply_rx). */
    kRxFin = 8,
    /** Receiver: shadow-copy swap committed (apply_rx). seq = new
     *  epoch; tuples = the aggregates fetched and merged from the
     *  retired copy. */
    kRxSwapCommit = 9,
    /** Receiver: task state reset for a post-reboot replay (apply_rx).
     *  arg0 = the drain deadline. The dedup windows and the swap policy
     *  survive it. */
    kRxReset = 10,
    /** Receiver: task finished (delivered or failed). arg0 = the
     *  TaskStatus delivered to the tenant. Retires the task's earlier
     *  receiver records and itself. */
    kRxTaskDone = 11,
};

/**
 * Hash of one frame payload, eight bytes per step with the length in
 * the seed and the tail zero-padded. Every step is a bijection of the
 * running value, so a change confined to one 8-byte word of a payload
 * always changes its hash: replay cannot miss a flipped byte.
 */
std::uint64_t wal_payload_hash(std::string_view payload);

/** Human-readable record-kind name (logs, WAL inspection). */
const char* wal_record_kind_name(WalRecordKind kind);

/** One WAL record: the same typed fields for every kind, which uses
 *  the ones its WalRecordKind comment names. */
struct WalRecord
{
    WalRecordKind kind = WalRecordKind::kAlloc;
    TaskId task = 0;
    std::uint32_t channel = 0;
    Seq seq = 0;
    ReduceOp op = ReduceOp::kAdd;
    std::uint64_t arg0 = 0;
    std::uint64_t arg1 = 0;
    std::uint64_t arg2 = 0;
    /** The payload: a stream, decoded DATA tuples or fetched aggregates. */
    KvStream tuples;

    bool operator==(const WalRecord&) const = default;
};

/** Outcome of a replay() pass over the byte image. */
struct WalReplayStatus
{
    /** Frames successfully parsed and hash-verified, retired records
     *  not yet compacted away included. */
    std::size_t records = 0;
    /** The image ends mid-record (crash during append). Tolerated. */
    bool torn_tail = false;
    /** A framed record's bytes do not match its log-segment hash, or a
     *  frame is malformed. Recovery must not trust this log. */
    bool corrupt = false;
    /** Bytes covered by verified records. */
    std::size_t valid_bytes = 0;
};

/**
 * One host's write-ahead log: an append-only byte image plus the
 * log-segment hash list and root digest appended in lock-step.
 *
 * The byte image models the durable medium; the hash list and digest
 * model the (tiny) separately-durable integrity metadata a real
 * deployment would replicate out-of-band. Fault-injection helpers
 * mutate only the byte image, exactly like media corruption.
 *
 * Every append applies the liveness rule; once the retired bytes
 * reach the live bytes the image is compacted: rewritten with the live
 * records in order, the segment list cut to theirs and the root digest
 * folded again over it. A damaged (fault-injected) image is never
 * compacted.
 */
class Wal
{
  public:
    explicit Wal(std::string name);

    const std::string& name() const { return name_; }

    /** Append one record: frame + payload into the byte image, payload
     *  hash onto the segment list, hash folded into the root digest. */
    void append(const WalRecord& record);

    /** Live records: the ones recovery acts on. */
    std::size_t records() const { return live_records_; }

    /** Image compactions so far. */
    std::size_t compactions() const { return compactions_; }

    /** Root digest: ordered fold of the segment hashes. */
    std::uint64_t digest() const { return digest_; }

    /** The per-record log-segment hashes of the image, in order. */
    const std::vector<std::uint64_t>&
    segment_hashes() const
    {
        return record_hashes_;
    }

    /**
     * Parse and hash-verify the byte image against the segment list,
     * and return what recovery acts on. An image that verifies whole
     * yields the live records, in order: records() of them. A torn tail
     * yields the verified prefix with status->torn_tail set. Corruption
     * either sets status->corrupt (when `status` is non-null; the
     * verified prefix before the damage is returned) or throws
     * StateError (when `status` is null). A damaged image's prefix
     * comes back whole, retired records included, since the record
     * that retired one may be the one the damage cut off; a fold gives
     * a retired record no effect once it applies the retiring one.
     */
    std::vector<WalRecord> replay(WalReplayStatus* status = nullptr) const;

    /** Full integrity check: replay cleanly covers every segment and
     *  the recomputed root matches digest(). */
    bool verify() const;

    /** Drop everything (a released journal; not a crash). */
    void clear();

    /** Structured inspection document (operations runbook: dump a
     *  host's WAL to see what recovery will rebuild). Lists the live
     *  records. */
    obs::Json describe() const;

    /** Size of the byte image. */
    std::size_t size_bytes() const { return bytes_.size(); }

    /** Route append counting into an external stats counter. */
    void set_append_counter(std::uint64_t* counter)
    {
        append_counter_ = counter;
    }

    // ---- fault injection (tests) -------------------------------------------
    /** Drop the last `n` bytes of the image: a torn tail. */
    void truncate_tail(std::size_t n);
    /** Flip one byte of the image: media corruption. */
    void flip_byte(std::size_t offset);

  private:
    /** Where one record's frame sits in the image. */
    struct Segment
    {
        std::size_t offset = 0;
        std::size_t bytes = 0;  ///< frame header + payload
        bool live = true;
    };

    /** Parse and hash-verify every frame of the image, retired ones
     *  included, into `st`; on corruption, throw StateError when
     *  `throw_on_corrupt`. */
    std::vector<WalRecord> replay_all(WalReplayStatus& st,
                                      bool throw_on_corrupt) const;

    /** The liveness rule: retire what `record` (segment `index`) makes
     *  dead, then track `record` if a later record can retire it. */
    void retire_by(const WalRecord& record, std::size_t index);
    void retire(std::size_t index);
    void compact();

    std::string name_;
    std::string bytes_;
    std::vector<std::uint64_t> record_hashes_;
    std::vector<Segment> segments_;
    std::uint64_t digest_ = 0;
    std::uint64_t* append_counter_ = nullptr;
    /** ASK_WAL_PARANOID=1: re-verify the whole log on every append. */
    bool paranoid_ = false;
    /** truncate_tail/flip_byte touched the image: never compact it. */
    bool damaged_ = false;

    std::size_t live_records_ = 0;
    std::size_t live_bytes_ = 0;
    std::size_t dead_bytes_ = 0;
    std::size_t compactions_ = 0;
    /** Live retirable segments, keyed by what retires them: receiver
     *  records and submits by task, allocs by base (with their task),
     *  checkpoints by channel (with their seq). */
    std::unordered_map<TaskId, std::vector<std::size_t>> rx_by_task_;
    std::unordered_map<TaskId, std::vector<std::size_t>> submits_by_task_;
    std::unordered_map<std::uint64_t,
                       std::vector<std::pair<std::size_t, TaskId>>>
        allocs_by_base_;
    std::unordered_map<std::uint32_t,
                       std::vector<std::pair<std::size_t, Seq>>>
        checkpoints_by_channel_;
};

/**
 * The cluster's stable storage: one named Wal per host process
 * ("controller", "host0", ...). Owned by the cluster, *not* by the
 * components — a crash wipes a component's memory but never its WAL.
 */
class WalStore
{
  public:
    /** Get or create the log named `name`. References stay valid for
     *  the store's lifetime. */
    Wal& wal(const std::string& name);

    /** The log for host daemon `host`. */
    Wal& host_wal(std::uint32_t host);

    /** The controller's allocation journal log. */
    Wal& controller_wal();

    obs::Json describe() const;

  private:
    std::map<std::string, Wal> wals_;
};

// ---- the durable receiver state and the pure fold -------------------------

/**
 * The durable half of one receive task: everything its log determines.
 * Only start_rx_task() and apply_rx() change it, on the live daemon (right
 * after appending the record) and in rebuild_daemon_state() alike.
 */
struct WalRxTaskState
{
    std::uint32_t expected_senders = 0;
    /** The task's swap policy is kDisabled. A reset keeps it. */
    bool swaps_disabled = false;
    /** The task's reduction operator; folds below combine with it. */
    ReduceOp op = ReduceOp::kAdd;
    Nanoseconds start_time = 0;
    /** The last reset's drain deadline (0 = none): the task drops its
     *  traffic until then. */
    Nanoseconds drain_until = 0;
    /** Dedup window size W of every channel window. */
    std::uint32_t window = 0;
    AggregateMap local;
    std::set<std::uint32_t> fins;
    /** One dedup window per sender channel. They survive a reset:
     *  replayed seqs continue past the crash point. */
    std::unordered_map<std::uint32_t, HostReceiveWindow> windows;
    std::uint32_t committed_epoch = 0;
    std::uint64_t tuples_aggregated_locally = 0;
    std::uint64_t tuples_fetched_from_switch = 0;
    std::uint64_t packets_received = 0;
    std::uint32_t swaps = 0;

    bool operator==(const WalRxTaskState&) const = default;
};

/** The state a kRxTaskStart record opens, with dedup windows of
 *  `window` sequence numbers. */
WalRxTaskState start_rx_task(const WalRecord& start, std::uint32_t window);

/**
 * Advance a receive task's durable state by one kRxData, kRxFin,
 * kRxSwapCommit or kRxReset record. The tuples of a kRxData or
 * kRxSwapCommit record are combined only: they were lifted before they
 * were journaled.
 */
void apply_rx(WalRxTaskState& state, const WalRecord& record);

/** One archived submit (a replay cursor). */
struct WalSendState
{
    std::uint32_t receiver = 0;
    /** Operator the stream was submitted under (stamped into frames). */
    ReduceOp op = ReduceOp::kAdd;
    /** Already lifted at submit_send; replay re-sends verbatim. */
    KvStream stream;

    bool operator==(const WalSendState&) const = default;
};

/** Everything a daemon restart rebuilds from its WAL. */
struct WalDaemonState
{
    /** Live (not yet done) receive tasks. */
    std::map<TaskId, WalRxTaskState> rx_tasks;
    /** Live archived sends (submits without a forget), one per submit
     *  in log order. */
    std::map<TaskId, std::vector<WalSendState>> sends;
    /** Per-local-channel resume seq (max checkpoint). */
    std::map<std::uint32_t, Seq> resume_seq;

    bool operator==(const WalDaemonState&) const = default;
};

/**
 * Fold a daemon WAL's records into the state a restart installs:
 * receiver records go through start_rx_task/apply_rx, with dedup
 * windows of `window` sequence numbers. Pure: the same records give
 * operator==-identical state.
 */
WalDaemonState rebuild_daemon_state(const std::vector<WalRecord>& records,
                                    std::uint32_t window);

}  // namespace ask::core

#endif  // ASK_ASK_WAL_H
