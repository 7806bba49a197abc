#include "ask/wal.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string_view>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"

namespace ask::core {

static_assert(std::endian::native == std::endian::little,
              "WAL frame headers are little-endian, copied with memcpy");

namespace {

/** Frame header: payload length + folded payload-hash check word, two
 *  fixed-width u32s. */
constexpr std::size_t kFrameHeader = 8;

char*
put_u32(char* out, std::uint32_t v)
{
    std::memcpy(out, &v, sizeof(v));
    return out + sizeof(v);
}

std::uint32_t
get_u32(const char* in)
{
    std::uint32_t v = 0;
    std::memcpy(&v, in, sizeof(v));
    return v;
}

/** Bytes of `v` as unsigned LEB128: what put_varint writes. Most
 *  payload integers (key lengths, counts, ids) are below 2^7. */
std::size_t
varint_size(std::uint64_t v)
{
    std::size_t n = 1;
    while (v >= 0x80) [[unlikely]] {
        v >>= 7;
        ++n;
    }
    return n;
}

/** Write `v` as unsigned LEB128: seven bits a byte, low bits first, the
 *  top bit set on every byte but the last. */
char*
put_varint(char* out, std::uint64_t v)
{
    while (v >= 0x80) [[unlikely]] {
        *out++ = static_cast<char>(v | 0x80);
        v >>= 7;
    }
    *out++ = static_cast<char>(v);
    return out;
}

std::size_t
kv_size(std::string_view key, std::uint64_t value)
{
    return varint_size(key.size()) + key.size() + varint_size(value);
}

char*
put_kv(char* out, std::string_view key, std::uint64_t value)
{
    out = put_varint(out, key.size());
    std::memcpy(out, key.data(), key.size());
    return put_varint(out + key.size(), value);
}

std::size_t
payload_size(const WalRecord& r)
{
    std::size_t n = 1 + varint_size(r.task) + varint_size(r.channel) +
                    varint_size(r.seq) +
                    varint_size(static_cast<std::uint8_t>(r.op)) +
                    varint_size(r.arg0) + varint_size(r.arg1) +
                    varint_size(r.arg2) + varint_size(r.tuples.size());
    for (const KvTuple& t : r.tuples)
        n += kv_size(t.key, t.value);
    return n;
}

/** Write the payload of `r` into `out`, which holds exactly
 *  payload_size(r) bytes: the kind byte, then as LEB128 task, channel,
 *  seq, op, the three args and the tuple count, then each tuple as key
 *  length, key bytes, value. */
void
encode_into(char* out, const WalRecord& r)
{
    *out++ = static_cast<char>(r.kind);
    out = put_varint(out, r.task);
    out = put_varint(out, r.channel);
    out = put_varint(out, r.seq);
    out = put_varint(out, static_cast<std::uint8_t>(r.op));
    out = put_varint(out, r.arg0);
    out = put_varint(out, r.arg1);
    out = put_varint(out, r.arg2);
    out = put_varint(out, r.tuples.size());
    for (const KvTuple& t : r.tuples)
        out = put_kv(out, t.key, t.value);
}

std::string
encode_record(const WalRecord& r)
{
    std::string payload(payload_size(r), '\0');
    encode_into(payload.data(), r);
    return payload;
}

/** Release a container's storage once it is mostly empty (after a
 *  compaction shrank the log). */
template <typename Container>
void
shrink_if_sparse(Container& c)
{
    if (c.capacity() / 4 > c.size())
        c.shrink_to_fit();
}

/** Bounds-checked reader of a payload's bytes and LEB128 integers. */
class Reader
{
  public:
    explicit Reader(std::string_view bytes) : bytes_(bytes) {}

    bool
    u8(std::uint8_t& v)
    {
        if (left() == 0)
            return false;
        v = static_cast<std::uint8_t>(bytes_[off_++]);
        return true;
    }

    /** An unsigned LEB128 integer of at most ten bytes that fits in 64
     *  bits. */
    bool
    varint(std::uint64_t& v)
    {
        v = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            std::uint8_t b = 0;
            if (!u8(b))
                return false;
            v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
            if ((b & 0x80) == 0)
                return shift < 63 || b <= 1;
        }
        return false;
    }

    bool
    u32(std::uint32_t& v)
    {
        std::uint64_t w = 0;
        if (!varint(w) || w > std::numeric_limits<std::uint32_t>::max())
            return false;
        v = static_cast<std::uint32_t>(w);
        return true;
    }

    bool
    str(std::string& v, std::uint64_t n)
    {
        if (n > left())
            return false;
        v.assign(bytes_.substr(off_, n));
        off_ += n;
        return true;
    }

    std::size_t left() const { return bytes_.size() - off_; }

    bool done() const { return left() == 0; }

  private:
    std::string_view bytes_;
    std::size_t off_ = 0;
};

bool
decode_record(std::string_view payload, WalRecord& out)
{
    Reader rd(payload);
    std::uint8_t kind = 0;
    std::uint32_t op = 0;
    std::uint64_t ntuples = 0;
    if (!rd.u8(kind) || !rd.u32(out.task) || !rd.u32(out.channel) ||
        !rd.u32(out.seq) || !rd.u32(op) || !rd.varint(out.arg0) ||
        !rd.varint(out.arg1) || !rd.varint(out.arg2) || !rd.varint(ntuples)) {
        return false;
    }
    if (kind < static_cast<std::uint8_t>(WalRecordKind::kAlloc) ||
        kind > static_cast<std::uint8_t>(WalRecordKind::kRxTaskDone) ||
        op >= kNumReduceOps) {
        return false;
    }
    out.kind = static_cast<WalRecordKind>(kind);
    out.op = static_cast<ReduceOp>(op);
    out.tuples.clear();
    // Every tuple takes at least two bytes (key length and value), so the
    // bytes left bound what the count may reserve.
    out.tuples.reserve(std::min<std::uint64_t>(ntuples, rd.left() / 2));
    for (std::uint64_t i = 0; i < ntuples; ++i) {
        std::uint64_t klen = 0;
        KvTuple t;
        if (!rd.varint(klen) || !rd.str(t.key, klen) || !rd.u32(t.value))
            return false;
        out.tuples.push_back(std::move(t));
    }
    return rd.done();
}

}  // namespace

std::uint64_t
wal_payload_hash(std::string_view payload)
{
    // A step is xor with the word, a multiply by an odd constant and an
    // xorshift: a bijection of the running value for a fixed word and
    // of the word for a fixed running value. The length in the seed
    // keeps the tail's zero padding from aliasing real trailing NULs.
    constexpr std::uint64_t kOdd = 0x9e3779b97f4a7c15ULL;
    std::uint64_t h = 0xcbf29ce484222325ULL ^ payload.size();
    auto step = [&h](std::uint64_t word) {
        h = (h ^ word) * kOdd;
        h ^= h >> 32;
    };
    const char* p = payload.data();
    std::size_t n = payload.size();
    for (; n >= 8; p += 8, n -= 8) {
        std::uint64_t word = 0;
        std::memcpy(&word, p, 8);
        step(word);
    }
    if (n != 0) {
        std::uint64_t word = 0;  // the tail, zero-padded
        std::memcpy(&word, p, n);
        step(word);
    }
    return mix64(h);
}

const char*
wal_record_kind_name(WalRecordKind kind)
{
    switch (kind) {
      case WalRecordKind::kAlloc:
        return "alloc";
      case WalRecordKind::kRelease:
        return "release";
      case WalRecordKind::kSendSubmit:
        return "send-submit";
      case WalRecordKind::kSendForget:
        return "send-forget";
      case WalRecordKind::kSeqCheckpoint:
        return "seq-checkpoint";
      case WalRecordKind::kRxTaskStart:
        return "rx-task-start";
      case WalRecordKind::kRxData:
        return "rx-data";
      case WalRecordKind::kRxFin:
        return "rx-fin";
      case WalRecordKind::kRxSwapCommit:
        return "rx-swap-commit";
      case WalRecordKind::kRxReset:
        return "rx-reset";
      case WalRecordKind::kRxTaskDone:
        return "rx-task-done";
    }
    return "unknown";
}

Wal::Wal(std::string name) : name_(std::move(name))
{
    const char* p = std::getenv("ASK_WAL_PARANOID");
    paranoid_ = p != nullptr && *p != '\0' && *p != '0';
}

void
Wal::append(const WalRecord& record)
{
    // Size the frame once and encode the payload in place at the end of
    // the image; the frame header follows from the payload hash.
    std::size_t len = payload_size(record);
    ASK_ASSERT(len <= std::numeric_limits<std::uint32_t>::max(), "WAL ",
               name_, ": record of ", len, " bytes overflows its frame");
    std::size_t offset = bytes_.size();
    bytes_.resize(offset + kFrameHeader + len);
    char* frame = bytes_.data() + offset;
    encode_into(frame + kFrameHeader, record);
    std::uint64_t h =
        wal_payload_hash(std::string_view(frame + kFrameHeader, len));
    put_u32(put_u32(frame, static_cast<std::uint32_t>(len)),
            static_cast<std::uint32_t>(mix64(h)));
    record_hashes_.push_back(h);
    segments_.push_back(Segment{offset, kFrameHeader + len, true});
    digest_ = mix64(digest_ ^ h);
    ++live_records_;
    live_bytes_ += kFrameHeader + len;
    if (append_counter_ != nullptr)
        ++*append_counter_;

    retire_by(record, segments_.size() - 1);
    if (!damaged_ && dead_bytes_ != 0 && dead_bytes_ >= live_bytes_)
        compact();
    // A test-damaged image is meant to fail verify(); check only intact
    // ones.
    if (paranoid_ && !damaged_)
        ASK_ASSERT(verify(), "WAL ", name_, " failed paranoid verify after ",
                   wal_record_kind_name(record.kind));
}

void
Wal::retire(std::size_t index)
{
    Segment& s = segments_[index];
    ASK_ASSERT(s.live, "WAL ", name_, ": record ", index, " retired twice");
    s.live = false;
    --live_records_;
    live_bytes_ -= s.bytes;
    dead_bytes_ += s.bytes;
}

void
Wal::compact()
{
    // Slide every live frame down over the retired ones, in order; the
    // segment list keeps the live hashes and the root is folded again.
    std::vector<std::size_t> remap(segments_.size());
    std::size_t end = 0;
    std::size_t kept = 0;
    std::uint64_t root = 0;
    for (std::size_t i = 0; i < segments_.size(); ++i) {
        Segment s = segments_[i];
        if (!s.live)
            continue;
        if (s.offset != end)
            std::memmove(bytes_.data() + end, bytes_.data() + s.offset,
                         s.bytes);
        s.offset = end;
        end += s.bytes;
        segments_[kept] = s;
        record_hashes_[kept] = record_hashes_[i];
        root = mix64(root ^ record_hashes_[kept]);
        remap[i] = kept++;
    }
    bytes_.resize(end);
    segments_.resize(kept);
    record_hashes_.resize(kept);
    shrink_if_sparse(bytes_);
    shrink_if_sparse(segments_);
    shrink_if_sparse(record_hashes_);
    digest_ = root;
    dead_bytes_ = 0;
    ++compactions_;

    for (auto* by_task : {&rx_by_task_, &submits_by_task_})
        for (auto& [task, list] : *by_task)
            for (std::size_t& i : list)
                i = remap[i];
    for (auto& [base, list] : allocs_by_base_)
        for (auto& entry : list)
            entry.first = remap[entry.first];
    for (auto& [channel, list] : checkpoints_by_channel_)
        for (auto& entry : list)
            entry.first = remap[entry.first];
}

std::vector<WalRecord>
Wal::replay(WalReplayStatus* status) const
{
    WalReplayStatus local;
    WalReplayStatus& st = status != nullptr ? *status : local;
    std::vector<WalRecord> records = replay_all(st, status == nullptr);
    // A damaged image yields its verified prefix whole: the record that
    // retired an earlier one may be the one the damage cut off.
    if (st.corrupt || st.torn_tail)
        return records;
    std::vector<WalRecord> live;
    live.reserve(live_records_);
    for (std::size_t i = 0; i < records.size(); ++i)
        if (segments_[i].live)
            live.push_back(std::move(records[i]));
    return live;
}

std::vector<WalRecord>
Wal::replay_all(WalReplayStatus& st, bool throw_on_corrupt) const
{
    st = WalReplayStatus{};
    std::vector<WalRecord> records;

    std::size_t off = 0;
    auto corrupt_at = [&](const char* what) {
        st.corrupt = true;
        if (throw_on_corrupt)
            fail_state("WAL ", name_, ": corrupt record at byte ", off, " (",
                       what, ")");
    };

    while (off < bytes_.size()) {
        if (off + kFrameHeader > bytes_.size()) {
            st.torn_tail = true;  // crash mid-header
            break;
        }
        std::uint32_t len = get_u32(bytes_.data() + off);
        std::uint32_t check = get_u32(bytes_.data() + off + 4);
        if (off + kFrameHeader + len > bytes_.size()) {
            st.torn_tail = true;  // crash mid-payload
            break;
        }
        std::string_view payload =
            std::string_view(bytes_).substr(off + kFrameHeader, len);
        std::uint64_t h = wal_payload_hash(payload);
        std::size_t index = records.size();
        if (static_cast<std::uint32_t>(mix64(h)) != check ||
            index >= record_hashes_.size() || h != record_hashes_[index]) {
            corrupt_at("log-segment hash mismatch");
            break;
        }
        WalRecord r;
        if (!decode_record(payload, r)) {
            corrupt_at("malformed payload");
            break;
        }
        records.push_back(std::move(r));
        off += kFrameHeader + len;
        st.valid_bytes = off;
    }

    st.records = records.size();
    // A truncation that happens to land on a frame boundary still shows
    // up: the verified records are a proper prefix of the segment list.
    if (!st.corrupt && st.records < record_hashes_.size())
        st.torn_tail = true;
    return records;
}

bool
Wal::verify() const
{
    WalReplayStatus st;
    std::vector<WalRecord> records = replay_all(st, false);
    if (st.corrupt || st.torn_tail || st.records != record_hashes_.size())
        return false;
    std::uint64_t root = 0;
    for (const WalRecord& r : records)
        root = mix64(root ^ wal_payload_hash(encode_record(r)));
    return root == digest_;
}

void
Wal::clear()
{
    bytes_.clear();
    record_hashes_.clear();
    segments_.clear();
    digest_ = 0;
    damaged_ = false;
    live_records_ = 0;
    live_bytes_ = 0;
    dead_bytes_ = 0;
    rx_by_task_.clear();
    submits_by_task_.clear();
    allocs_by_base_.clear();
    checkpoints_by_channel_.clear();
}

obs::Json
Wal::describe() const
{
    obs::Json d = obs::Json::object();
    d.set("name", name_);
    d.set("records", static_cast<std::uint64_t>(live_records_));
    d.set("size_bytes", static_cast<std::uint64_t>(bytes_.size()));
    d.set("digest", std::to_string(digest_));
    WalReplayStatus st;
    std::vector<WalRecord> records = replay_all(st, false);
    d.set("torn_tail", st.torn_tail);
    d.set("corrupt", st.corrupt);
    obs::Json list = obs::Json::array();
    for (std::size_t i = 0; i < records.size(); ++i) {
        if (!segments_[i].live)
            continue;
        const WalRecord& r = records[i];
        obs::Json rj = obs::Json::object();
        rj.set("kind", wal_record_kind_name(r.kind));
        rj.set("task", r.task);
        rj.set("channel", r.channel);
        rj.set("seq", r.seq);
        rj.set("op", reduce_op_name(r.op));
        rj.set("arg0", r.arg0);
        rj.set("arg1", r.arg1);
        rj.set("arg2", r.arg2);
        rj.set("tuples", static_cast<std::uint64_t>(r.tuples.size()));
        list.push_back(std::move(rj));
    }
    d.set("log", std::move(list));
    return d;
}

void
Wal::truncate_tail(std::size_t n)
{
    damaged_ = damaged_ || n != 0;
    bytes_.resize(bytes_.size() - std::min(n, bytes_.size()));
}

void
Wal::flip_byte(std::size_t offset)
{
    ASK_ASSERT(offset < bytes_.size(), "flip_byte past WAL end");
    damaged_ = true;
    bytes_[offset] = static_cast<char>(bytes_[offset] ^ 0x40);
}

Wal&
WalStore::wal(const std::string& name)
{
    auto it = wals_.find(name);
    if (it == wals_.end())
        it = wals_.emplace(name, Wal(name)).first;
    return it->second;
}

Wal&
WalStore::host_wal(std::uint32_t host)
{
    return wal("host" + std::to_string(host));
}

Wal&
WalStore::controller_wal()
{
    return wal("controller");
}

obs::Json
WalStore::describe() const
{
    obs::Json d = obs::Json::object();
    for (const auto& [name, w] : wals_)
        d.set(name, w.describe());
    return d;
}

WalRxTaskState
start_rx_task(const WalRecord& start, std::uint32_t window)
{
    WalRxTaskState t;
    t.expected_senders = static_cast<std::uint32_t>(start.arg0);
    t.swaps_disabled = start.arg1 != 0;
    t.op = start.op;
    t.start_time = static_cast<Nanoseconds>(start.arg2);
    t.window = window;
    return t;
}

void
apply_rx(WalRxTaskState& t, const WalRecord& r)
{
    switch (r.kind) {
      case WalRecordKind::kRxData:
        t.windows.try_emplace(r.channel, t.window).first->second.observe(r.seq);
        // Combine-only: journaled tuples were lifted at the sender.
        for (const KvTuple& tuple : r.tuples)
            accumulate(t.local, tuple.key, tuple.value, t.op);
        t.tuples_aggregated_locally += r.tuples.size();
        ++t.packets_received;
        return;
      case WalRecordKind::kRxFin:
        t.fins.insert(r.channel);
        return;
      case WalRecordKind::kRxSwapCommit:
        // Fetched registers are lifted partials: combine only.
        merge_stream_into(t.local, r.tuples, t.op);
        t.tuples_fetched_from_switch += r.tuples.size();
        t.committed_epoch = r.seq;
        ++t.swaps;
        return;
      case WalRecordKind::kRxReset:
        // The register wipe took the partials and rewound the swap
        // epoch, and the replay re-sends every stream: restart the
        // aggregate and its counters. The dedup windows survive, and so
        // does the swap policy.
        t.local.clear();
        t.fins.clear();
        t.committed_epoch = 0;
        t.tuples_aggregated_locally = 0;
        t.tuples_fetched_from_switch = 0;
        t.packets_received = 0;
        t.swaps = 0;
        t.drain_until = static_cast<Nanoseconds>(r.arg0);
        return;
      default:
        ASK_ASSERT(false, "apply_rx of a ", wal_record_kind_name(r.kind),
                   " record");
    }
}

WalDaemonState
rebuild_daemon_state(const std::vector<WalRecord>& records,
                     std::uint32_t window)
{
    WalDaemonState state;
    for (const WalRecord& r : records) {
        switch (r.kind) {
          case WalRecordKind::kRxTaskStart:
            state.rx_tasks.insert_or_assign(r.task, start_rx_task(r, window));
            break;
          case WalRecordKind::kRxData:
          case WalRecordKind::kRxFin:
          case WalRecordKind::kRxSwapCommit:
          case WalRecordKind::kRxReset: {
            auto it = state.rx_tasks.find(r.task);
            if (it != state.rx_tasks.end())
                apply_rx(it->second, r);
            break;
          }
          case WalRecordKind::kRxTaskDone:
            state.rx_tasks.erase(r.task);
            break;
          case WalRecordKind::kSendSubmit:
            state.sends[r.task].push_back(WalSendState{
                static_cast<std::uint32_t>(r.arg0), r.op, r.tuples});
            break;
          case WalRecordKind::kSendForget:
            state.sends.erase(r.task);
            break;
          case WalRecordKind::kSeqCheckpoint: {
            Seq& cur = state.resume_seq[r.channel];
            cur = std::max(cur, r.seq);
            break;
          }
          case WalRecordKind::kAlloc:
          case WalRecordKind::kRelease:
            break;  // controller journal records; not daemon state
        }
    }
    return state;
}

// ---- the liveness rule -----------------------------------------------------
//
// A record is retired once a later record makes it irrelevant to every
// fold over the log: rebuild_daemon_state above and the controller's
// region rebuild (AskSwitchController::recover_from_wal). Each case
// names the fold step that makes dropping the records exact.
//
//  - kRxTaskDone(t) erases t's receive state, so t's earlier receiver
//    records and the done record itself fold to nothing.
//  - kSendForget(t) erases t's archived send: t's earlier submits and
//    the forget fold to nothing.
//  - kRelease(t, base) erases the region its kAlloc installed and
//    frees that alloc's epoch slot. It retires the pair only when that
//    alloc is the lone live one at `base`. The controller never hands
//    out a live base or a live epoch slot, so for logs it writes the
//    pair folds to nothing.
//  - kSeqCheckpoint keeps the channel's maximum seq, so a checkpoint
//    retires the same channel's earlier ones whose seq is <= its own.

void
Wal::retire_by(const WalRecord& record, std::size_t index)
{
    // Retire the task's tracked records and the retiring record itself.
    auto retire_task = [&](auto& by_task) {
        auto it = by_task.find(record.task);
        if (it != by_task.end()) {
            for (std::size_t i : it->second)
                retire(i);
            by_task.erase(it);
        }
        retire(index);
    };
    switch (record.kind) {
      case WalRecordKind::kRxTaskStart:
      case WalRecordKind::kRxData:
      case WalRecordKind::kRxFin:
      case WalRecordKind::kRxSwapCommit:
      case WalRecordKind::kRxReset:
        rx_by_task_[record.task].push_back(index);
        return;
      case WalRecordKind::kRxTaskDone:
        retire_task(rx_by_task_);
        return;
      case WalRecordKind::kSendSubmit:
        submits_by_task_[record.task].push_back(index);
        return;
      case WalRecordKind::kSendForget:
        retire_task(submits_by_task_);
        return;
      case WalRecordKind::kAlloc:
        allocs_by_base_[record.arg0].emplace_back(index, record.task);
        return;
      case WalRecordKind::kRelease: {
        auto it = allocs_by_base_.find(record.arg0);
        if (it != allocs_by_base_.end() && it->second.size() == 1 &&
            it->second.front().second == record.task) {
            retire(it->second.front().first);
            allocs_by_base_.erase(it);
            retire(index);
        }
        return;
      }
      case WalRecordKind::kSeqCheckpoint: {
        auto& live = checkpoints_by_channel_[record.channel];
        std::erase_if(live, [&](const std::pair<std::size_t, Seq>& cp) {
            if (cp.second > record.seq)
                return false;
            retire(cp.first);
            return true;
        });
        live.emplace_back(index, record.seq);
        return;
      }
    }
}

}  // namespace ask::core
