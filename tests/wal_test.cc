/**
 * Write-ahead log tests: framing round-trips, merkle-digest integrity,
 * the two corruption classes (torn tail tolerated, damaged record
 * rejected with a typed error and no UB), the pure daemon-state fold
 * whose idempotence the crash-recovery proof rides on, and compaction:
 * retiring dead records must leave every fold unchanged.
 */
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "ask/controller.h"
#include "ask/switch_program.h"
#include "ask/wal.h"
#include "common/logging.h"
#include "common/random.h"
#include "net/network.h"
#include "pisa/pisa_switch.h"
#include "sim/simulator.h"

namespace ask::core {
namespace {

WalRecord
data_record(TaskId task, std::uint32_t channel, Seq seq,
            std::vector<std::pair<std::string, std::uint64_t>> kvs)
{
    WalRecord r;
    r.kind = WalRecordKind::kRxData;
    r.task = task;
    r.channel = channel;
    r.seq = seq;
    r.kvs = std::move(kvs);
    return r;
}

WalRecord
start_record(TaskId task, std::uint32_t senders, bool swaps_disabled)
{
    WalRecord r;
    r.kind = WalRecordKind::kRxTaskStart;
    r.task = task;
    r.arg0 = senders;
    r.arg1 = swaps_disabled ? 1 : 0;
    r.kvs = {{"liveness_ns", 0}, {"start_time", 100}};
    return r;
}

std::vector<WalRecord>
sample_records()
{
    std::vector<WalRecord> rs;
    rs.push_back(start_record(7, 2, false));
    rs.push_back(data_record(7, 3, 0, {{"alpha", 4}, {"beta", 9}}));
    WalRecord fin;
    fin.kind = WalRecordKind::kRxFin;
    fin.task = 7;
    fin.channel = 3;
    rs.push_back(fin);
    return rs;
}

// ---------------------------------------------------------------------------
// Framing and integrity.
// ---------------------------------------------------------------------------

TEST(Wal, RecordsRoundTripExactly)
{
    Wal wal("test");
    std::vector<WalRecord> rs = sample_records();
    for (const WalRecord& r : rs)
        wal.append(r);

    WalReplayStatus st;
    std::vector<WalRecord> replayed = wal.replay(&st);
    EXPECT_FALSE(st.torn_tail);
    EXPECT_FALSE(st.corrupt);
    EXPECT_EQ(st.records, rs.size());
    EXPECT_EQ(st.valid_bytes, wal.size_bytes());
    ASSERT_EQ(replayed.size(), rs.size());
    for (std::size_t i = 0; i < rs.size(); ++i)
        EXPECT_EQ(replayed[i], rs[i]) << "record " << i;
    EXPECT_TRUE(wal.verify());
}

TEST(Wal, EmptyLogIsCleanAndVerifies)
{
    Wal wal("empty");
    WalReplayStatus st;
    EXPECT_TRUE(wal.replay(&st).empty());
    EXPECT_FALSE(st.torn_tail);
    EXPECT_FALSE(st.corrupt);
    EXPECT_TRUE(wal.verify());
    EXPECT_EQ(wal.digest(), 0u);
}

TEST(Wal, TornTailYieldsTheDurablePrefix)
{
    Wal wal("torn");
    for (const WalRecord& r : sample_records())
        wal.append(r);
    // Rip a few bytes off the last record: a crash mid-append.
    wal.truncate_tail(3);

    WalReplayStatus st;
    std::vector<WalRecord> replayed = wal.replay(&st);
    EXPECT_TRUE(st.torn_tail);
    EXPECT_FALSE(st.corrupt);
    EXPECT_EQ(replayed.size(), 2u);  // the prefix before the tear
    EXPECT_EQ(replayed[0], sample_records()[0]);
    // The full-log integrity check must still notice the missing tail.
    EXPECT_FALSE(wal.verify());
}

TEST(Wal, FrameBoundaryTruncationIsStillATornTail)
{
    // Truncation that lands exactly on a frame boundary leaves a byte
    // image that parses cleanly — only the segment list betrays it.
    Wal wal("boundary");
    std::vector<WalRecord> rs = sample_records();
    wal.append(rs[0]);
    std::size_t after_first = wal.size_bytes();
    wal.append(rs[1]);
    wal.truncate_tail(wal.size_bytes() - after_first);

    WalReplayStatus st;
    std::vector<WalRecord> replayed = wal.replay(&st);
    EXPECT_EQ(replayed.size(), 1u);
    EXPECT_TRUE(st.torn_tail);
    EXPECT_FALSE(st.corrupt);
    EXPECT_FALSE(wal.verify());
}

TEST(Wal, CorruptRecordIsReportedWithoutThrowing)
{
    Wal wal("corrupt");
    for (const WalRecord& r : sample_records())
        wal.append(r);
    // Damage a payload byte of the first record (offset past the 8-byte
    // frame header): media corruption, not a torn append.
    wal.flip_byte(10);

    WalReplayStatus st;
    std::vector<WalRecord> replayed = wal.replay(&st);
    EXPECT_TRUE(st.corrupt);
    EXPECT_TRUE(replayed.empty());  // nothing before the damage
    EXPECT_FALSE(wal.verify());
}

TEST(Wal, CorruptRecordThrowsTypedErrorWhenUnchecked)
{
    Wal wal("throwing");
    for (const WalRecord& r : sample_records())
        wal.append(r);
    wal.flip_byte(10);
    EXPECT_THROW(wal.replay(), StateError);
}

TEST(Wal, CorruptionAfterAPrefixKeepsThePrefix)
{
    Wal wal("prefix");
    std::vector<WalRecord> rs = sample_records();
    for (const WalRecord& r : rs)
        wal.append(r);
    // Damage inside the *last* record's frame.
    wal.flip_byte(wal.size_bytes() - 2);

    WalReplayStatus st;
    std::vector<WalRecord> replayed = wal.replay(&st);
    EXPECT_TRUE(st.corrupt);
    ASSERT_EQ(replayed.size(), 2u);
    EXPECT_EQ(replayed[0], rs[0]);
    EXPECT_EQ(replayed[1], rs[1]);
}

TEST(Wal, EveryFlippedPayloadByteIsCaught)
{
    // Each step of the payload hash is a bijection, so a change inside
    // one 8-byte word always changes the hash: every single-byte flip
    // of every payload is caught, not most of them.
    Wal wal("flips");
    std::vector<std::size_t> frame_ends;
    for (const WalRecord& r : sample_records()) {
        wal.append(r);
        frame_ends.push_back(wal.size_bytes());
    }
    WalRecord submit;
    submit.kind = WalRecordKind::kSendSubmit;
    submit.task = 9;
    submit.arg0 = 1;
    wal.append(submit, KvStream{{"k", 3}, {"a-longer-key-than-a-word", 7}});
    frame_ends.push_back(wal.size_bytes());
    WalRecord checkpoint;
    checkpoint.kind = WalRecordKind::kSeqCheckpoint;
    checkpoint.channel = 1;
    checkpoint.seq = 64;
    wal.append(checkpoint);
    frame_ends.push_back(wal.size_bytes());
    ASSERT_EQ(wal.compactions(), 0u);
    ASSERT_TRUE(wal.verify());

    std::size_t begin = 0;
    for (std::size_t end : frame_ends) {
        for (std::size_t off = begin + 8; off < end; ++off) {  // payload
            Wal damaged = wal;
            damaged.flip_byte(off);
            WalReplayStatus st;
            damaged.replay(&st);
            EXPECT_TRUE(st.corrupt) << "byte " << off;
            EXPECT_FALSE(damaged.verify()) << "byte " << off;
        }
        begin = end;
    }
}

TEST(Wal, PayloadHashSeparatesWordsAndLengths)
{
    std::string payload(37, 'x');
    std::uint64_t h = wal_payload_hash(payload);
    for (std::size_t i = 0; i < payload.size(); ++i) {
        std::string changed = payload;
        changed[i] = 'y';
        EXPECT_NE(wal_payload_hash(changed), h) << "byte " << i;
    }
    // The tail is zero-padded; the seeded length keeps NUL padding
    // from aliasing a shorter payload.
    EXPECT_NE(wal_payload_hash(std::string("ab", 2)),
              wal_payload_hash(std::string("ab\0", 3)));
    EXPECT_NE(wal_payload_hash(""), wal_payload_hash(std::string(8, '\0')));
}

TEST(Wal, DigestChangesWithEveryAppend)
{
    Wal wal("digest");
    std::uint64_t last = wal.digest();
    for (const WalRecord& r : sample_records()) {
        wal.append(r);
        EXPECT_NE(wal.digest(), last);
        last = wal.digest();
    }
    EXPECT_EQ(wal.records(), 3u);
    EXPECT_EQ(wal.segment_hashes().size(), 3u);
}

TEST(Wal, ClearDropsEverything)
{
    Wal wal("cleared");
    for (const WalRecord& r : sample_records())
        wal.append(r);
    wal.clear();
    EXPECT_EQ(wal.records(), 0u);
    EXPECT_EQ(wal.size_bytes(), 0u);
    EXPECT_EQ(wal.digest(), 0u);
    EXPECT_TRUE(wal.verify());
}

TEST(Wal, AppendCounterRoutesToExternalStat)
{
    Wal wal("counted");
    std::uint64_t count = 0;
    wal.set_append_counter(&count);
    for (const WalRecord& r : sample_records())
        wal.append(r);
    EXPECT_EQ(count, 3u);
}

TEST(WalStore, NamesOneLogPerProcess)
{
    WalStore store;
    EXPECT_EQ(store.host_wal(0).name(), "host0");
    EXPECT_EQ(store.host_wal(3).name(), "host3");
    EXPECT_EQ(store.controller_wal().name(), "controller");
    // References are stable: the same process always gets the same log.
    store.host_wal(0).append(sample_records()[0]);
    EXPECT_EQ(store.host_wal(0).records(), 1u);
}

TEST(Wal, DescribeReportsTheLog)
{
    Wal wal("described");
    for (const WalRecord& r : sample_records())
        wal.append(r);
    obs::Json d = wal.describe();
    ASSERT_NE(d.find("name"), nullptr);
    EXPECT_EQ(d.find("name")->as_string(), "described");
    EXPECT_EQ(d.find("records")->as_int(), 3);
    EXPECT_FALSE(d.find("corrupt")->as_bool());
    EXPECT_EQ(d.find("log")->size(), 3u);
}

// ---------------------------------------------------------------------------
// The pure daemon-state fold.
// ---------------------------------------------------------------------------

TEST(WalRebuild, FoldIsIdempotent)
{
    std::vector<WalRecord> log;
    log.push_back(start_record(1, 2, false));
    log.push_back(data_record(1, 0, 0, {{"a", 1}, {"b", 2}}));
    log.push_back(data_record(1, 1, 0, {{"a", 3}}));
    WalRecord cp;
    cp.kind = WalRecordKind::kSeqCheckpoint;
    cp.channel = 0;
    cp.seq = 64;
    log.push_back(cp);

    WalDaemonState once = rebuild_daemon_state(log, ReduceOp::kAdd);
    WalDaemonState twice = rebuild_daemon_state(log, ReduceOp::kAdd);
    EXPECT_EQ(once, twice);
    ASSERT_EQ(once.rx_tasks.size(), 1u);
    const WalRxTaskState& t = once.rx_tasks.at(1);
    EXPECT_EQ(t.local.at("a"), 4u);
    EXPECT_EQ(t.local.at("b"), 2u);
    EXPECT_EQ(t.observed.size(), 2u);
    EXPECT_EQ(t.packets_received, 2u);
    EXPECT_EQ(t.tuples_aggregated_locally, 3u);
}

TEST(WalRebuild, DoneRemovesTheTask)
{
    std::vector<WalRecord> log;
    log.push_back(start_record(1, 1, false));
    log.push_back(data_record(1, 0, 0, {{"a", 1}}));
    WalRecord done;
    done.kind = WalRecordKind::kRxTaskDone;
    done.task = 1;
    log.push_back(done);

    WalDaemonState state = rebuild_daemon_state(log, ReduceOp::kAdd);
    EXPECT_TRUE(state.rx_tasks.empty());
}

TEST(WalRebuild, SubmitsConcatenateAndForgetRemoves)
{
    WalRecord s1;
    s1.kind = WalRecordKind::kSendSubmit;
    s1.task = 5;
    s1.arg0 = 2;  // receiver host
    s1.kvs = {{"x", 1}, {"y", 2}};
    WalRecord s2 = s1;
    s2.kvs = {{"z", 3}};

    WalDaemonState state = rebuild_daemon_state({s1, s2}, ReduceOp::kAdd);
    ASSERT_EQ(state.sends.size(), 1u);
    const WalSendState& send = state.sends.at(5);
    EXPECT_EQ(send.receiver, 2u);
    ASSERT_EQ(send.stream.size(), 3u);
    EXPECT_EQ(send.stream[2].key, "z");

    WalRecord forget;
    forget.kind = WalRecordKind::kSendForget;
    forget.task = 5;
    state = rebuild_daemon_state({s1, s2, forget}, ReduceOp::kAdd);
    EXPECT_TRUE(state.sends.empty());
}

TEST(WalRebuild, ResetWipesProgressButKeepsObservedSeqs)
{
    std::vector<WalRecord> log;
    log.push_back(start_record(1, 1, false));
    log.push_back(data_record(1, 0, 0, {{"a", 1}}));
    log.push_back(data_record(1, 0, 1, {{"a", 1}}));
    WalRecord reset;
    reset.kind = WalRecordKind::kRxReset;
    reset.task = 1;
    reset.kvs = {{"drain_until", 5000}};
    log.push_back(reset);
    log.push_back(data_record(1, 0, 2, {{"b", 7}}));

    WalDaemonState state = rebuild_daemon_state(log, ReduceOp::kAdd);
    const WalRxTaskState& t = state.rx_tasks.at(1);
    // Aggregate restarted from scratch after the reset...
    EXPECT_EQ(t.local.count("a"), 0u);
    EXPECT_EQ(t.local.at("b"), 7u);
    EXPECT_EQ(t.packets_received, 1u);
    // ...but the duplicate-filter history survives it.
    EXPECT_EQ(t.observed.size(), 3u);
    EXPECT_EQ(t.restart_drain_until, 5000u);
    // One reset, no recoveries: generation 2 + 1.
    EXPECT_EQ(t.generation, 3u);
}

TEST(WalRebuild, GenerationOvershootsEveryPreCrashHandout)
{
    std::vector<WalRecord> log;
    WalRecord recovered;
    recovered.kind = WalRecordKind::kHostRecovered;
    log.push_back(recovered);
    log.push_back(recovered);  // host crashed twice before
    log.push_back(start_record(9, 1, true));

    WalDaemonState state = rebuild_daemon_state(log, ReduceOp::kAdd);
    EXPECT_EQ(state.recoveries, 2u);
    EXPECT_EQ(state.rx_tasks.at(9).generation, 4u);  // 2 + 0 resets + 2
    EXPECT_TRUE(state.rx_tasks.at(9).swaps_disabled);
}

TEST(WalRebuild, ResumeSeqIsTheMaxCheckpoint)
{
    auto checkpoint = [](std::uint32_t channel, Seq seq) {
        WalRecord r;
        r.kind = WalRecordKind::kSeqCheckpoint;
        r.channel = channel;
        r.seq = seq;
        return r;
    };
    WalDaemonState state = rebuild_daemon_state(
        {checkpoint(0, 64), checkpoint(1, 64), checkpoint(0, 192),
         checkpoint(0, 128)},
        ReduceOp::kAdd);
    EXPECT_EQ(state.resume_seq.at(0), 192u);
    EXPECT_EQ(state.resume_seq.at(1), 64u);
    EXPECT_EQ(state.resume_seq.count(2), 0u);
}

TEST(WalRebuild, FoldHonorsTheAggregationOp)
{
    std::vector<WalRecord> log;
    log.push_back(start_record(1, 1, false));
    log.push_back(data_record(1, 0, 0, {{"a", 9}}));
    log.push_back(data_record(1, 0, 1, {{"a", 3}}));

    EXPECT_EQ(rebuild_daemon_state(log, ReduceOp::kAdd).rx_tasks.at(1).local.at(
                  "a"),
              12u);
    EXPECT_EQ(rebuild_daemon_state(log, ReduceOp::kMax).rx_tasks.at(1).local.at(
                  "a"),
              9u);
    EXPECT_EQ(rebuild_daemon_state(log, ReduceOp::kMin).rx_tasks.at(1).local.at(
                  "a"),
              3u);
}

TEST(WalRebuild, PerTaskOpKvOverridesTheDefault)
{
    // A journalled "op" kv pins the task's operator; the default_op
    // argument only covers pre-upgrade logs that never recorded one.
    std::vector<WalRecord> log;
    WalRecord start = start_record(1, 1, false);
    start.kvs.emplace_back("op", static_cast<std::uint64_t>(ReduceOp::kMax));
    log.push_back(start);
    log.push_back(data_record(1, 0, 0, {{"a", 9}}));
    log.push_back(data_record(1, 0, 1, {{"a", 3}}));

    WalDaemonState state = rebuild_daemon_state(log, ReduceOp::kAdd);
    EXPECT_EQ(state.rx_tasks.at(1).op, ReduceOp::kMax);
    EXPECT_EQ(state.rx_tasks.at(1).local.at("a"), 9u);

    // An explicit "op" of 0 is kAdd, not "absent": it must win over a
    // non-add default.
    WalRecord start_add = start_record(2, 1, false);
    start_add.kvs.emplace_back("op", 0);
    std::vector<WalRecord> log2 = {start_add,
                                   data_record(2, 0, 0, {{"a", 9}}),
                                   data_record(2, 0, 1, {{"a", 3}})};
    state = rebuild_daemon_state(log2, ReduceOp::kMin);
    EXPECT_EQ(state.rx_tasks.at(2).op, ReduceOp::kAdd);
    EXPECT_EQ(state.rx_tasks.at(2).local.at("a"), 12u);

    // No "op" kv at all: the caller's default applies.
    std::vector<WalRecord> log3 = {start_record(3, 1, false),
                                   data_record(3, 0, 0, {{"a", 9}}),
                                   data_record(3, 0, 1, {{"a", 3}})};
    state = rebuild_daemon_state(log3, ReduceOp::kMin);
    EXPECT_EQ(state.rx_tasks.at(3).op, ReduceOp::kMin);
    EXPECT_EQ(state.rx_tasks.at(3).local.at("a"), 3u);
}

TEST(WalRebuild, SendSubmitRestoresItsOp)
{
    // The archived stream is journalled already lifted; arg1 carries the
    // op so replay_task re-submits without a second lift, under the
    // operator the application chose.
    WalRecord s;
    s.kind = WalRecordKind::kSendSubmit;
    s.task = 5;
    s.arg0 = 2;  // receiver host
    s.arg1 = static_cast<std::uint32_t>(ReduceOp::kCount);
    s.kvs = {{"x", 1}};
    WalDaemonState state = rebuild_daemon_state({s}, ReduceOp::kAdd);
    EXPECT_EQ(state.sends.at(5).op, ReduceOp::kCount);

    // Pre-op records carry arg1 == 0, which is kAdd — the only operator
    // that existed when they were written.
    s.arg1 = 0;
    state = rebuild_daemon_state({s}, ReduceOp::kMax);
    EXPECT_EQ(state.sends.at(5).op, ReduceOp::kAdd);
}

TEST(WalRebuild, DataForUnknownTaskIsDropped)
{
    // A done task's late records (or a controller journal mixed in) must
    // not resurrect state.
    std::vector<WalRecord> log;
    log.push_back(data_record(42, 0, 0, {{"ghost", 1}}));
    WalRecord alloc;
    alloc.kind = WalRecordKind::kAlloc;
    alloc.task = 1;
    log.push_back(alloc);
    WalDaemonState state = rebuild_daemon_state(log, ReduceOp::kAdd);
    EXPECT_TRUE(state.rx_tasks.empty());
    EXPECT_TRUE(state.sends.empty());
}

TEST(WalRebuild, SwapCommitMergesFetchedAggregates)
{
    std::vector<WalRecord> log;
    log.push_back(start_record(1, 1, false));
    log.push_back(data_record(1, 0, 0, {{"a", 1}}));
    WalRecord swap;
    swap.kind = WalRecordKind::kRxSwapCommit;
    swap.task = 1;
    swap.seq = 2;  // new epoch
    swap.kvs = {{"a", 10}, {"c", 4}};
    log.push_back(swap);

    WalDaemonState state = rebuild_daemon_state(log, ReduceOp::kAdd);
    const WalRxTaskState& t = state.rx_tasks.at(1);
    EXPECT_EQ(t.local.at("a"), 11u);
    EXPECT_EQ(t.local.at("c"), 4u);
    EXPECT_EQ(t.committed_epoch, 2u);
    EXPECT_EQ(t.swaps, 1u);
    EXPECT_EQ(t.tuples_fetched_from_switch, 2u);
}

// ---------------------------------------------------------------------------
// Journaling straight from tuples.
// ---------------------------------------------------------------------------

/** `record` with one (key, value) kv per tuple appended to its kvs. */
WalRecord
with_tuples(WalRecord record, const KvStream& tuples)
{
    for (const KvTuple& t : tuples)
        record.kvs.emplace_back(t.key, static_cast<std::uint64_t>(t.value));
    return record;
}

TEST(Wal, AppendFromTuplesMatchesAppendOfKvs)
{
    WalRecord submit;
    submit.kind = WalRecordKind::kSendSubmit;
    submit.task = 3;
    submit.arg0 = 1;
    submit.arg1 = static_cast<std::uint32_t>(ReduceOp::kMax);
    WalRecord reset;  // named scalars ahead of the tuples
    reset.kind = WalRecordKind::kRxReset;
    reset.task = 3;
    reset.kvs = {{"drain_until", 77}};

    const std::vector<KvStream> streams = {
        {},
        {{"k", 0xFFFFFFFFu}},
        {{std::string(300, 'L'), 5}, {"", 1}, {std::string(17, 'm'), 9}},
    };
    for (const WalRecord& base : {submit, reset}) {
        for (const KvStream& tuples : streams) {
            Wal direct("direct");
            Wal copied("copied");
            direct.append(base, tuples);
            copied.append(with_tuples(base, tuples));
            EXPECT_EQ(direct.size_bytes(), copied.size_bytes());
            EXPECT_EQ(direct.segment_hashes(), copied.segment_hashes());
            EXPECT_EQ(direct.digest(), copied.digest());
            EXPECT_EQ(direct.replay(), copied.replay());
            EXPECT_TRUE(direct.verify());
        }
    }
}

// ---------------------------------------------------------------------------
// Compaction.
// ---------------------------------------------------------------------------

/** Reference liveness rule, written as a scan over the full record
 *  list: which records does some later record retire? */
std::vector<bool>
reference_live(const std::vector<WalRecord>& all)
{
    auto is_rx = [](WalRecordKind k) {
        return k == WalRecordKind::kRxTaskStart ||
               k == WalRecordKind::kRxData || k == WalRecordKind::kRxFin ||
               k == WalRecordKind::kRxSwapCommit ||
               k == WalRecordKind::kRxReset;
    };
    std::vector<bool> live(all.size(), true);
    for (std::size_t j = 0; j < all.size(); ++j) {
        const WalRecord& r = all[j];
        for (std::size_t i = 0; i < j; ++i) {
            const WalRecord& e = all[i];
            bool dead = false;
            switch (r.kind) {
              case WalRecordKind::kRxTaskDone:
                dead = is_rx(e.kind) && e.task == r.task;
                break;
              case WalRecordKind::kSendForget:
                dead = e.kind == WalRecordKind::kSendSubmit &&
                       e.task == r.task;
                break;
              case WalRecordKind::kSeqCheckpoint:
                dead = e.kind == WalRecordKind::kSeqCheckpoint &&
                       e.channel == r.channel && e.seq <= r.seq;
                break;
              default:
                break;
            }
            if (dead)
                live[i] = false;
        }
        if (r.kind == WalRecordKind::kRxTaskDone ||
            r.kind == WalRecordKind::kSendForget)
            live[j] = false;
    }
    return live;
}

TEST(WalCompaction, SeededDifferentialAgainstTheFullLog)
{
    // Random daemon logs — receiver lifecycles, submits and forgets,
    // checkpoints that may go backwards, recovery markers, and task ids
    // reused after they finish — appended half through append(record)
    // and half straight from tuples. After every append the compacted
    // log must fold to the state of the full record list, verify, and
    // hold less than twice the bytes of the records still live.
    std::size_t compactions = 0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        Rng rng = seeded_rng("wal_compaction_differential", seed);
        Wal wal("differential");
        std::vector<WalRecord> all;
        std::vector<std::size_t> frame_bytes;
        auto random_tuples = [&rng] {
            KvStream tuples(rng.next_below(5));
            for (KvTuple& t : tuples) {
                t.key = std::string(1 + rng.next_below(20),
                                    static_cast<char>('a' + rng.next_below(4)));
                t.value = static_cast<Value>(rng.next_below(100));
            }
            return tuples;
        };

        for (int step = 0; step < 300; ++step) {
            WalRecord r;
            r.task = static_cast<TaskId>(1 + rng.next_below(3));
            r.channel = static_cast<std::uint32_t>(rng.next_below(3));
            KvStream tuples;
            std::uint64_t pick = rng.next_below(100);
            if (pick < 10) {
                r = start_record(r.task, 1 + rng.next_below(2),
                                 rng.next_below(2) == 0);
            } else if (pick < 45) {
                r.kind = WalRecordKind::kRxData;
                r.seq = static_cast<Seq>(step);
                tuples = random_tuples();
            } else if (pick < 52) {
                r.kind = WalRecordKind::kRxFin;
            } else if (pick < 57) {
                r.kind = WalRecordKind::kRxSwapCommit;
                r.seq = static_cast<Seq>(1 + rng.next_below(4));
                tuples = random_tuples();
            } else if (pick < 60) {
                r.kind = WalRecordKind::kRxReset;
                r.kvs = {{"drain_until", static_cast<std::uint64_t>(step)}};
            } else if (pick < 68) {
                r.kind = WalRecordKind::kRxTaskDone;
            } else if (pick < 76) {
                r.kind = WalRecordKind::kSendSubmit;
                r.arg0 = static_cast<std::uint32_t>(rng.next_below(4));
                tuples = random_tuples();
            } else if (pick < 81) {
                r.kind = WalRecordKind::kSendForget;
            } else if (pick < 98) {
                r.kind = WalRecordKind::kSeqCheckpoint;
                r.seq = static_cast<Seq>(64 * rng.next_below(8));
            } else {
                r = WalRecord{};
                r.kind = WalRecordKind::kHostRecovered;
            }

            if (rng.next_below(2) == 0)
                wal.append(r, tuples);
            else
                wal.append(with_tuples(r, tuples));
            all.push_back(with_tuples(r, tuples));
            Wal alone("alone");
            alone.append(all.back());
            frame_bytes.push_back(alone.size_bytes());

            ASSERT_TRUE(wal.verify()) << "seed " << seed << " step " << step;
            ASSERT_EQ(rebuild_daemon_state(wal.replay(), ReduceOp::kAdd),
                      rebuild_daemon_state(all, ReduceOp::kAdd))
                << "seed " << seed << " step " << step;
            std::vector<bool> live = reference_live(all);
            std::size_t live_records = 0;
            std::size_t live_bytes = 0;
            for (std::size_t i = 0; i < all.size(); ++i) {
                if (live[i]) {
                    ++live_records;
                    live_bytes += frame_bytes[i];
                }
            }
            ASSERT_EQ(wal.records(), live_records)
                << "seed " << seed << " step " << step;
            if (live_bytes == 0)
                ASSERT_EQ(wal.size_bytes(), 0u);
            else
                ASSERT_LT(wal.size_bytes(), 2 * live_bytes)
                    << "seed " << seed << " step " << step;
        }
        compactions += wal.compactions();
    }
    EXPECT_GT(compactions, 12u);
}

/** A host log that compacted once: task 1 ran to completion, task 2 is
 *  still receiving. */
Wal
compacted_log()
{
    Wal wal("compacted");
    wal.append(start_record(1, 1, false));
    wal.append(data_record(1, 0, 0, {{"a", 1}, {"b", 2}}));
    wal.append(data_record(1, 0, 1, {{"a", 3}}));
    WalRecord done;
    done.kind = WalRecordKind::kRxTaskDone;
    done.task = 1;
    wal.append(done);
    wal.append(start_record(2, 1, false));
    wal.append(data_record(2, 1, 0, {{"c", 5}}));
    wal.append(data_record(2, 1, 1, {{"d", 6}}));
    return wal;
}

TEST(WalCompaction, DoneRetiresTheTaskAndCompacts)
{
    Wal wal = compacted_log();
    EXPECT_EQ(wal.compactions(), 1u);
    EXPECT_EQ(wal.records(), 3u);
    ASSERT_EQ(wal.segment_hashes().size(), 3u);
    std::vector<WalRecord> replayed = wal.replay();
    ASSERT_EQ(replayed.size(), 3u);
    EXPECT_EQ(replayed[0], start_record(2, 1, false));
    EXPECT_TRUE(wal.verify());
    // The root digest commits to the live log: the same three records
    // appended to a fresh log give the same digest.
    Wal fresh("fresh");
    for (const WalRecord& r : replayed)
        fresh.append(r);
    EXPECT_EQ(wal.digest(), fresh.digest());
    EXPECT_EQ(wal.size_bytes(), fresh.size_bytes());
    obs::Json d = wal.describe();
    EXPECT_EQ(d.find("records")->as_int(), 3);
    EXPECT_EQ(d.find("log")->size(), 3u);
}

TEST(WalCompaction, TornTailOnACompactedImage)
{
    Wal wal = compacted_log();
    wal.truncate_tail(3);
    WalReplayStatus st;
    std::vector<WalRecord> replayed = wal.replay(&st);
    EXPECT_TRUE(st.torn_tail);
    EXPECT_FALSE(st.corrupt);
    EXPECT_EQ(replayed.size(), 2u);
    EXPECT_FALSE(wal.verify());

    // A damaged image is never compacted: the done record below retires
    // task 2's records but leaves the image — and the tear — in place.
    std::size_t size = wal.size_bytes();
    WalRecord done;
    done.kind = WalRecordKind::kRxTaskDone;
    done.task = 2;
    wal.append(done);
    EXPECT_EQ(wal.compactions(), 1u);
    EXPECT_GT(wal.size_bytes(), size);
    EXPECT_FALSE(wal.verify());
}

TEST(WalCompaction, FlippedByteOnACompactedImage)
{
    Wal wal = compacted_log();
    wal.flip_byte(wal.size_bytes() - 2);
    WalReplayStatus st;
    std::vector<WalRecord> replayed = wal.replay(&st);
    EXPECT_TRUE(st.corrupt);
    EXPECT_EQ(replayed.size(), 2u);
    EXPECT_THROW(wal.replay(), StateError);
    EXPECT_FALSE(wal.verify());
}

TEST(WalCompaction, ControllerRecoversTheSameRegions)
{
    sim::Simulator simulator;
    net::Network network(simulator);
    pisa::PisaSwitch sw(network, 16, pisa::kDefaultStageSramBytes);
    AskConfig cfg;
    cfg.num_aas = 8;
    cfg.aggregators_per_aa = 64;
    cfg.medium_groups = 2;
    cfg.medium_segments = 2;
    cfg.max_hosts = 4;
    cfg.channels_per_host = 2;
    cfg.max_tasks = 4;
    AskSwitchProgram program(cfg, sw);
    WalStore store;
    Wal& wal = store.controller_wal();
    AskSwitchController ctl({&program}, wal);

    TaskRegion first = *ctl.allocate(1, 8);
    TaskRegion second = *ctl.allocate(2, 8);
    ctl.release(1);  // retires alloc(1) and itself
    TaskRegion reused = *ctl.allocate(3, 8, ReduceOp::kMax);
    EXPECT_EQ(reused.base, first.base);  // alloc / release / alloc of a base
    ctl.release(2);
    TaskRegion last = *ctl.allocate(4, 4);
    EXPECT_GE(wal.compactions(), 2u);
    EXPECT_EQ(wal.records(), 2u);

    // Reboot the switch and crash the controller: both forget the task
    // table, and the compacted journal alone must bring it back.
    std::uint32_t free_before = ctl.free_aggregators();
    program.on_reboot();
    ctl.crash();
    EXPECT_EQ(ctl.recover_from_wal(), 2u);
    EXPECT_EQ(ctl.free_aggregators(), free_before);
    EXPECT_EQ(program.find_task(1), nullptr);
    EXPECT_EQ(program.find_task(2), nullptr);
    for (auto [task, want] : {std::pair{TaskId{3}, reused},
                              std::pair{TaskId{4}, last}}) {
        const TaskRegion* got = program.find_task(task);
        ASSERT_NE(got, nullptr) << "task " << task;
        EXPECT_EQ(got->base, want.base);
        EXPECT_EQ(got->len, want.len);
        EXPECT_EQ(got->epoch_slot, want.epoch_slot);
        EXPECT_EQ(got->op, want.op);
    }
    // The next allocation lands where it would have without the crash:
    // task 2's freed slice, past the reused one.
    std::optional<TaskRegion> next = ctl.allocate(5, 4);
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(next->base, second.base + last.len);
}

}  // namespace
}  // namespace ask::core
