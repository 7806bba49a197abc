#include "sim/engine.h"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>

#include "common/logging.h"

namespace ask::sim {

/**
 * The persistent worker pool behind parallel windows.
 *
 * `workers` threads are spawned once (the calling thread participates
 * too, so an engine with num_threads == N creates N - 1 of them). Work
 * is a (count, body) pair; indices are claimed with an atomic counter,
 * so distribution across threads is racy BY DESIGN — nothing the
 * engine computes may depend on which worker ran which index, and the
 * determinism tests run every campaign at several thread counts to
 * prove nothing does.
 */
class ParallelEngine::Pool
{
  public:
    explicit Pool(unsigned workers)
    {
        threads_.reserve(workers);
        for (unsigned w = 0; w < workers; ++w)
            threads_.emplace_back([this] { worker_loop(); });
    }

    ~Pool()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        work_ready_.notify_all();
        for (auto& t : threads_)
            t.join();
    }

    /** Run body(i) for i in [0, n); returns when every index is done. */
    void
    run(std::size_t n, const std::function<void(std::size_t)>& body)
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            n_ = n;
            body_ = &body;
            next_.store(0, std::memory_order_relaxed);
            busy_ = threads_.size();
            ++generation_;
        }
        work_ready_.notify_all();
        claim_loop();
        std::unique_lock<std::mutex> lock(mu_);
        round_done_.wait(lock, [this] { return busy_ == 0; });
        body_ = nullptr;
    }

  private:
    void
    claim_loop()
    {
        for (;;) {
            std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
            if (i >= n_)
                return;
            (*body_)(i);
        }
    }

    void
    worker_loop()
    {
        std::uint64_t seen = 0;
        for (;;) {
            std::unique_lock<std::mutex> lock(mu_);
            work_ready_.wait(lock, [&] {
                return stop_ || generation_ != seen;
            });
            if (stop_)
                return;
            seen = generation_;
            lock.unlock();

            claim_loop();

            lock.lock();
            if (--busy_ == 0)
                round_done_.notify_one();
        }
    }

    std::vector<std::thread> threads_;
    std::mutex mu_;
    std::condition_variable work_ready_;
    std::condition_variable round_done_;
    std::uint64_t generation_ = 0;
    std::size_t n_ = 0;
    const std::function<void(std::size_t)>* body_ = nullptr;
    std::atomic<std::size_t> next_{0};
    std::size_t busy_ = 0;
    bool stop_ = false;
};

ParallelEngine::ParallelEngine(SimOptions options) : options_(options)
{
    ASK_ASSERT(options_.num_threads >= 1, "engine needs at least 1 thread");
}

ParallelEngine::~ParallelEngine() = default;

IslandId
ParallelEngine::add_island(std::string name)
{
    ASK_ASSERT(!in_window_, "cannot add islands mid-run");
    islands_.push_back(
        Island{std::move(name), std::make_unique<Simulator>(), {}});
    return static_cast<IslandId>(islands_.size() - 1);
}

void
ParallelEngine::set_lookahead(SimTime lookahead)
{
    ASK_ASSERT(!in_window_, "cannot change lookahead mid-run");
    ASK_ASSERT(lookahead >= 0, "negative lookahead");
    lookahead_ = lookahead;
}

void
ParallelEngine::post(IslandId from, IslandId to, SimTime delay, EventFn fn)
{
    ASK_ASSERT(in_window_, "post() is only legal inside a running window");
    ASK_ASSERT(lookahead_ > 0, "posting islands need a positive lookahead");
    ASK_ASSERT(delay >= lookahead_,
               "cross-island delay below the lookahead bound");
    ASK_ASSERT(to < islands_.size(), "post to unknown island");
    Island& src = islands_.at(from);
    // Timestamp now, at the source's clock: by the lookahead bound it
    // lands at or beyond the current window's end, so buffering it to
    // the barrier cannot reorder it before anything already executed.
    src.outbox.push_back(Post{to, src.sim->now() + delay, std::move(fn)});
}

void
ParallelEngine::parallel_for(std::size_t n,
                             const std::function<void(std::size_t)>& body)
{
    if (options_.num_threads <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    if (!pool_)
        pool_ = std::make_unique<Pool>(options_.num_threads - 1);
    pool_->run(n, body);
}

void
ParallelEngine::flush_outboxes()
{
    // The merge order — islands by id, each outbox in emission order —
    // is a pure function of simulation content, never of the thread
    // schedule, so the schedule sequence numbers the target simulators
    // assign (and with them same-timestamp FIFO order) are reproducible.
    for (Island& island : islands_) {
        for (Post& p : island.outbox)
            islands_.at(p.to).sim->schedule_at(p.time, std::move(p.fn));
        island.outbox.clear();
    }
}

bool
ParallelEngine::global_floor(SimTime* t)
{
    bool any = false;
    for (Island& island : islands_) {
        SimTime next = 0;
        if (island.sim->next_event_time(&next) && (!any || next < *t)) {
            any = true;
            *t = next;
        }
    }
    return any;
}

SimTime
ParallelEngine::drive(bool bounded, SimTime deadline)
{
    ASK_ASSERT(!in_window_, "engine re-entered");
    for (;;) {
        SimTime floor = 0;
        if (!global_floor(&floor))
            break;
        if (bounded && floor > deadline)
            break;

        // The window [floor, end): with no lookahead the islands are
        // independent by contract, so the window is unbounded and each
        // island simply runs out (or up to the deadline).
        bool windowed = lookahead_ > 0;
        SimTime end = floor + lookahead_;
        if (bounded && (!windowed || end > deadline + 1))
            end = deadline + 1;  // run_before is strict: fires == deadline

        in_window_ = true;
        parallel_for(islands_.size(), [&](std::size_t i) {
            if (windowed || bounded)
                islands_[i].sim->run_before(end);
            else
                islands_[i].sim->run();
        });
        in_window_ = false;
        flush_outboxes();

        if (!windowed && !bounded)
            break;  // every island drained completely
    }

    SimTime reached = bounded ? deadline : 0;
    for (Island& island : islands_) {
        if (bounded && island.sim->now() < deadline)
            island.sim->run_until(deadline);  // advance idle clocks
        reached = std::max(reached, island.sim->now());
    }
    return reached;
}

SimTime
ParallelEngine::run()
{
    return drive(/*bounded=*/false, 0);
}

SimTime
ParallelEngine::run_until(SimTime deadline)
{
    return drive(/*bounded=*/true, deadline);
}

void
ParallelEngine::run_isolated(const std::vector<std::function<void()>>& jobs)
{
    parallel_for(jobs.size(), [&](std::size_t i) { jobs[i](); });
}

}  // namespace ask::sim
