#include "testing/differential.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "ask/controller.h"
#include "ask/seen_window.h"
#include "common/hash.h"
#include "common/random.h"
#include "pisa/model/invariants.h"
#include "pisa/verify/oracle.h"
#include "testing/oracle.h"

namespace ask::testing {

namespace {

const char*
seen_outcome_name(core::SeenOutcome o)
{
    switch (o) {
      case core::SeenOutcome::kFresh: return "fresh";
      case core::SeenOutcome::kDuplicate: return "duplicate";
      case core::SeenOutcome::kStale: return "stale";
    }
    return "?";
}

/**
 * Model-equivalence probe: the compact W-bit window must classify every
 * in-contract delivery trace exactly like the plain 2W-bit design —
 * including across a register wipe healed by the fence repair.
 */
void
probe_seen_models(const ScenarioSpec& spec, DiffResult& out)
{
    std::uint32_t window = spec.cluster.ask.window;
    Rng rng(mix64(spec.seed ^ 0x5ee2ULL));
    core::PlainSeen plain(window);
    core::CompactSeen compact(window);

    core::Seq issued = 0;  // highest sequence number handed out so far
    bool started = false;
    for (int step = 0; step < 2000; ++step) {
        core::Seq s;
        double roll = rng.next_double();
        if (!started || roll < 0.7) {
            s = started ? ++issued : issued;
            started = true;
        } else if (roll < 0.95) {
            // Re-deliver (duplicate / reordered) something recent.
            std::uint32_t back = static_cast<std::uint32_t>(
                rng.next_below(window));
            s = issued > back ? issued - back : 0;
        } else {
            // Crash-and-fence: wipe both models, repair at the next
            // fresh sequence, exactly like fence_channel after a
            // switch reboot — then deliver that fence sequence. (The
            // compact design requires every admitted sequence to be
            // observed before its window passes; the sender's
            // retransmission loop guarantees that in the real system,
            // so the trace must not leave gaps either.)
            plain.wipe();
            compact.wipe();
            issued += 1;
            plain.repair(issued);
            compact.repair(issued);
            s = issued;
        }
        auto po = plain.observe(s);
        auto co = compact.observe(s);
        if (po != co) {
            out.probe_failures.push_back(
                {"seen_model_equivalence",
                 "seq " + std::to_string(s) + " window " +
                     std::to_string(window) + ": plain=" +
                     seen_outcome_name(po) + " compact=" +
                     seen_outcome_name(co)});
            return;  // one witness is enough; traces diverge after it
        }
    }
}

void
probe_journal(const ScenarioSpec& spec, core::AskCluster& cluster,
              DiffResult& out)
{
    std::uint32_t free_now = cluster.controller().free_aggregators();
    std::uint32_t copy = spec.cluster.ask.copy_size();
    if (free_now != copy) {
        out.probe_failures.push_back(
            {"controller_journal",
             "free pool after drain: " + std::to_string(free_now) + " of " +
                 std::to_string(copy) + " aggregators per AA"});
    }
    for (const auto& t : spec.tasks) {
        for (std::uint32_t s = 0; s < cluster.num_switches(); ++s) {
            if (cluster.program(core::SwitchId{s}).find_task(t.id) !=
                nullptr) {
                out.probe_failures.push_back(
                    {"controller_journal",
                     "task " + std::to_string(t.id) +
                         " still mapped on switch " + std::to_string(s) +
                         "'s data plane after completion"});
            }
        }
    }
}

void
probe_register_hygiene(const ScenarioSpec& spec, core::AskCluster& cluster,
                       DiffResult& out)
{
    for (std::uint32_t s = 0; s < cluster.num_switches(); ++s) {
        pisa::Pipeline& pipe =
            cluster.pisa_switch(core::SwitchId{s}).pipeline();
        for (std::uint32_t i = 0; i < spec.cluster.ask.num_aas; ++i) {
            std::string label =
                "switch " + std::to_string(s) + " aa_" + std::to_string(i);
            auto* arr = pipe.find_array("aa_" + std::to_string(i));
            if (arr == nullptr) {
                out.probe_failures.push_back(
                    {"register_hygiene", label + " missing"});
                continue;
            }
            for (std::size_t slot = 0; slot < arr->size(); ++slot) {
                if (arr->cp_read(slot) != 0) {
                    out.probe_failures.push_back(
                        {"register_hygiene",
                         label + "[" + std::to_string(slot) +
                             "] nonzero after final fetch"});
                    break;  // one witness per array keeps reports short
                }
            }
        }
    }
}

/**
 * Durability probe (post-recovery equivalence): after the run drains,
 * every process's WAL must still verify against its merkle digest, the
 * daemon-state fold must be idempotent and show no live obligations
 * (every journaled task start reached its done record, every archived
 * send was forgotten), the controller journal must balance, and every
 * crash the chaos plan injected must have been matched by a recovery
 * that trusted the log.
 */
void
probe_recovery(const ScenarioSpec& spec, core::AskCluster& cluster,
               DiffResult& out)
{
    auto fail = [&out](const std::string& detail) {
        out.probe_failures.push_back({"post_recovery_equivalence", detail});
    };

    for (std::uint32_t h = 0; h < cluster.num_hosts(); ++h) {
        core::Wal& wal = cluster.wal_store().host_wal(h);
        if (!wal.verify()) {
            fail(wal.name() + ": log fails its digest check");
            continue;
        }
        std::vector<core::WalRecord> records = wal.replay();
        core::WalDaemonState once =
            core::rebuild_daemon_state(records, spec.cluster.ask.op);
        core::WalDaemonState twice =
            core::rebuild_daemon_state(records, spec.cluster.ask.op);
        if (!(once == twice))
            fail(wal.name() + ": state fold is not idempotent");
        if (!once.rx_tasks.empty())
            fail(wal.name() + ": " + std::to_string(once.rx_tasks.size()) +
                 " receive task(s) never reached a done record");
        if (!once.sends.empty())
            fail(wal.name() + ": " + std::to_string(once.sends.size()) +
                 " archived send(s) never forgotten");
    }

    // The controller's one region journal must verify and balance.
    core::Wal& cwal = cluster.wal_store().controller_wal();
    if (!cwal.verify()) {
        fail(cwal.name() + ": log fails its digest check");
    } else {
        std::uint64_t allocs = 0;
        std::uint64_t releases = 0;
        for (const core::WalRecord& r : cwal.replay()) {
            if (r.kind == core::WalRecordKind::kAlloc)
                ++allocs;
            else if (r.kind == core::WalRecordKind::kRelease)
                ++releases;
        }
        if (allocs != releases)
            fail(cwal.name() + ": journal unbalanced: " +
                 std::to_string(allocs) + " alloc(s) vs " +
                 std::to_string(releases) + " release(s)");
    }

    core::ChaosStats cs = cluster.chaos_stats();
    if (cs.host_crashes != cs.host_recoveries)
        fail(std::to_string(cs.host_crashes) + " host crash(es) but " +
             std::to_string(cs.host_recoveries) + " recover(ies)");
    if (cs.controller_crashes != cs.controller_recoveries)
        fail(std::to_string(cs.controller_crashes) +
             " controller crash(es) but " +
             std::to_string(cs.controller_recoveries) + " recover(ies)");
    if (cs.wal_rejected != 0)
        fail(std::to_string(cs.wal_rejected) +
             " WAL(s) rejected (nothing corrupts logs in-contract)");
    if (cs.unhandled_events != 0)
        fail(std::to_string(cs.unhandled_events) +
             " chaos event(s) reached no handler");
}

/**
 * Model-reachability probe: cross-check the dynamically observed
 * component states against the semantic model's reachable-state
 * envelope. The model checker (src/pisa/model/) proves a set of state
 * invariants over ALL reachable states of the extracted automata —
 * window shape, plain clear-ahead, switch max_seq <= cursor + W - 1,
 * cursor <= journaled WAL promise, in-flight seq < cursor. Here the
 * same predicates (the very functions the checker uses) run against
 * the live system after the run drains: every seen window extracted
 * off the switch registers of every provisioned channel, every channel
 * cursor, and every WAL fold's resume promise. A failure means the
 * real components reached a state the model calls unreachable — i.e.
 * the extraction in src/pisa/model/ abstracted away a real behavior
 * and its proofs are about the wrong automaton.
 */
void
probe_model_reachability(const ScenarioSpec& spec, core::AskCluster& cluster,
                         DiffResult& out)
{
    auto fail = [&out](const std::string& detail) {
        out.probe_failures.push_back({"model_reachability", detail});
    };

    // Host side: channel cursors, in-flight seqs, and WAL promises.
    std::uint32_t cph = spec.cluster.ask.channels_per_host;
    std::vector<core::Seq> cursor(
        static_cast<std::size_t>(cluster.num_hosts()) * cph, 0);
    std::vector<std::optional<std::uint64_t>> promise(cursor.size());
    for (std::uint32_t h = 0; h < cluster.num_hosts(); ++h) {
        core::AskDaemon& daemon = cluster.daemon(core::HostId{h});
        core::Wal& wal = cluster.wal_store().host_wal(h);
        core::WalDaemonState folded;
        if (wal.verify())  // digest failures are probe_recovery's story
            folded = core::rebuild_daemon_state(wal.replay(),
                                                spec.cluster.ask.op);
        for (std::uint32_t c = 0; c < daemon.num_channels(); ++c) {
            core::DataChannel& chan = daemon.channel(c);
            core::ChannelId id = chan.global_id();
            cursor.at(id) = chan.next_seq();
            auto it = folded.resume_seq.find(c);
            if (it != folded.resume_seq.end())
                promise.at(id) = it->second;
            for (core::Seq s : chan.in_flight_seqs()) {
                if (s >= chan.next_seq())
                    fail("channel " + std::to_string(id) +
                         ": in-flight seq " + std::to_string(s) +
                         " not below cursor " +
                         std::to_string(chan.next_seq()));
            }
        }
    }

    // Switch side: every provisioned window against the model's state
    // invariants, then the cross-component relation per (switch,
    // channel) pair.
    for (std::uint32_t s = 0; s < cluster.num_switches(); ++s) {
        const core::AskSwitchProgram& program =
            cluster.program(core::SwitchId{s});
        for (core::ChannelId ch = 0; ch < cursor.size(); ++ch) {
            if (!program.provisions(ch))
                continue;
            core::SeenSnapshot snap = program.extract_seen(ch);
            std::string label = "switch " + std::to_string(s) +
                                " channel " + std::to_string(ch) + ": ";
            if (auto err = pisa::model::check_seen_snapshot(snap))
                fail(label + *err);
            pisa::model::ChannelRelation rel;
            rel.switch_max_seq = snap.max_seq;
            rel.daemon_next_seq = cursor.at(ch);
            rel.wal_resume = promise.at(ch);
            rel.window = snap.window;
            if (auto err = pisa::model::check_channel_relation(rel))
                fail(label + *err);
        }
    }
}

/**
 * Access-plan probe: with the runtime cross-check armed, every dynamic
 * register access was already matched against the static plan (an
 * unpredicted access panics mid-run); afterwards the oracle's counters
 * must agree exactly with the pipeline's own — no access slipped past
 * the cross-check, no pass went unchecked.
 */
void
probe_access_plan(core::AskCluster& cluster, DiffResult& out)
{
    for (std::uint32_t s = 0; s < cluster.num_switches(); ++s) {
        std::string label = "switch " + std::to_string(s) + ": ";
        const pisa::verify::AccessOracle* oracle =
            cluster.program(core::SwitchId{s}).access_oracle();
        if (oracle == nullptr) {
            out.probe_failures.push_back(
                {"access_plan",
                 label + "runtime cross-check was not armed"});
            continue;
        }
        pisa::Pipeline& pipe =
            cluster.pisa_switch(core::SwitchId{s}).pipeline();
        std::uint64_t dynamic = 0;
        for (std::size_t st = 0; st < pipe.num_stages(); ++st)
            for (std::size_t i = 0; i < pipe.stage(st)->array_count(); ++i)
                dynamic += pipe.stage(st)->array(i)->access_count();
        if (oracle->accesses() != dynamic) {
            out.probe_failures.push_back(
                {"access_plan",
                 label + "oracle checked " +
                     std::to_string(oracle->accesses()) +
                     " accesses but the arrays record " +
                     std::to_string(dynamic)});
        }
        if (oracle->passes() != pipe.pass_epoch()) {
            out.probe_failures.push_back(
                {"access_plan",
                 label + "oracle saw " + std::to_string(oracle->passes()) +
                     " passes but the pipeline ran " +
                     std::to_string(pipe.pass_epoch())});
        }
    }
}

/**
 * Exactly-once probe for the reduction algebra: fold every stream TWICE
 * (the worst-case "every packet was retransmitted and replayed after a
 * reboot" trace) and compare against the single-application truth.
 * Idempotent ops (min/max) must absorb the replay — doubled == truth —
 * which is why they never needed the seen window for correctness. For
 * non-idempotent ops (sum/count/float) the doubled fold MUST differ on
 * any non-trivial stream; the cluster's delivered result is then
 * checked against it, so a seen-window regression that double-applies
 * retransmissions across ToR/tier reboots produces a named witness
 * here, not just a generic key divergence.
 */
void
probe_exactly_once(const ScenarioSpec& spec, const TaskSpec& task,
                   const core::AggregateMap& delivered, DiffResult& out)
{
    core::ReduceOp op = task.options.op.value_or(spec.cluster.ask.op);
    core::AggregateMap truth = ground_truth(task, spec.cluster.ask.op);
    core::AggregateMap doubled;
    for (int pass = 0; pass < 2; ++pass)
        for (const auto& s : task.streams)
            core::aggregate_into(doubled, s.stream, op);

    std::string label = "task " + std::to_string(task.id) + " (" +
                        core::reduce_op_name(op) + "): ";
    if (core::reduce_op_idempotent(op)) {
        if (!maps_equal(truth, doubled)) {
            out.probe_failures.push_back(
                {"exactly_once",
                 label + "idempotent op changed under full replay"});
        }
        return;
    }
    if (truth.empty())
        return;  // no mass to conserve
    if (maps_equal(truth, doubled))
        return;  // degenerate (all-zero values): no distinguishing power
    if (maps_equal(delivered, doubled)) {
        out.probe_failures.push_back(
            {"exactly_once",
             label + "delivered aggregate matches the DOUBLE-application "
                     "fold — retransmission replay was applied twice"});
    }
}

}  // namespace

bool
DiffResult::ok() const
{
    if (!divergences.empty() || !probe_failures.empty())
        return false;
    for (const auto& t : tasks)
        if (!t.done || t.status != "ok" || t.divergent_keys != 0)
            return false;
    return true;
}

obs::Json
DiffResult::describe() const
{
    obs::Json d = obs::Json::object();
    d.set("ok", ok());
    d.set("finish_time_ns", finish_time);

    obs::Json tasks_json = obs::Json::array();
    for (const auto& t : tasks) {
        obs::Json tj = obs::Json::object();
        tj.set("task", t.task);
        tj.set("done", t.done);
        tj.set("status", t.status);
        tj.set("divergent_keys", t.divergent_keys);
        tasks_json.push_back(std::move(tj));
    }
    d.set("tasks", std::move(tasks_json));

    obs::Json div_json = obs::Json::array();
    for (const auto& v : divergences) {
        obs::Json vj = obs::Json::object();
        vj.set("task", v.task);
        vj.set("key", v.key);
        vj.set("expected", v.expected ? obs::Json(*v.expected) : obs::Json());
        vj.set("actual", v.actual ? obs::Json(*v.actual) : obs::Json());
        div_json.push_back(std::move(vj));
    }
    d.set("divergences", std::move(div_json));

    obs::Json probe_json = obs::Json::array();
    for (const auto& p : probe_failures) {
        obs::Json pj = obs::Json::object();
        pj.set("probe", p.probe);
        pj.set("detail", p.detail);
        probe_json.push_back(std::move(pj));
    }
    d.set("probe_failures", std::move(probe_json));
    return d;
}

DiffResult
run_differential(const ScenarioSpec& spec)
{
    DiffResult out;

    core::AskCluster cluster(spec.cluster);
    // Differential campaigns always run the access-plan cross-check:
    // every register access of the run — on every switch of the fabric
    // — is replayed against that switch's static proof
    // (ASK_VERIFY_ACCESSES semantics, unconditionally).
    for (std::uint32_t s = 0; s < cluster.num_switches(); ++s)
        cluster.program(core::SwitchId{s}).enable_access_verification();
    if (!spec.chaos.empty())
        cluster.arm_chaos(spec.chaos);

    struct Completion
    {
        bool done = false;
        core::AggregateMap result;
        core::TaskReport report;
    };
    std::unordered_map<core::TaskId, Completion> completions;
    for (const auto& t : spec.tasks)
        completions[t.id];  // stable addresses: all slots exist pre-run

    for (const auto& t : spec.tasks) {
        Completion* slot = &completions[t.id];
        cluster.submit_task(
            t.id, t.receiver_host, t.streams, t.options,
            [slot](core::AggregateMap result, core::TaskReport report) {
                slot->done = true;
                slot->result = std::move(result);
                slot->report = report;
            });
    }
    out.finish_time = cluster.run();

    // ---- key-by-key diff against the oracle ------------------------------
    for (const auto& t : spec.tasks) {
        const Completion& c = completions[t.id];
        TaskOutcome outcome;
        outcome.task = t.id;
        outcome.done = c.done;
        outcome.status =
            c.done ? core::task_status_name(c.report.status) : "unfinished";

        if (c.done) {
            core::AggregateMap truth =
                ground_truth(t, spec.cluster.ask.op);
            for (const auto& [key, expected] : truth) {
                auto it = c.result.find(key);
                if (it == c.result.end()) {
                    out.divergences.push_back(
                        {t.id, key, expected, std::nullopt});
                } else if (it->second != expected) {
                    out.divergences.push_back(
                        {t.id, key, expected, it->second});
                }
            }
            for (const auto& [key, actual] : c.result) {
                if (truth.find(key) == truth.end())
                    out.divergences.push_back(
                        {t.id, key, std::nullopt, actual});
            }
            probe_exactly_once(spec, t, c.result, out);
        }
        out.tasks.push_back(std::move(outcome));
    }

    // Deterministic order (AggregateMap iteration is not), then count
    // per task and cap what the report carries.
    std::sort(out.divergences.begin(), out.divergences.end(),
              [](const Divergence& a, const Divergence& b) {
                  return a.task != b.task ? a.task < b.task : a.key < b.key;
              });
    for (const auto& v : out.divergences)
        for (auto& t : out.tasks)
            if (t.task == v.task)
                ++t.divergent_keys;
    if (out.divergences.size() > DiffResult::kMaxRecordedDivergences)
        out.divergences.resize(DiffResult::kMaxRecordedDivergences);

    // ---- invariant probes ------------------------------------------------
    probe_journal(spec, cluster, out);
    probe_register_hygiene(spec, cluster, out);
    probe_seen_models(spec, out);
    probe_access_plan(cluster, out);
    probe_recovery(spec, cluster, out);
    probe_model_reachability(spec, cluster, out);

    return out;
}

}  // namespace ask::testing
