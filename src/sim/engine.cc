#include "sim/engine.h"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/logging.h"

namespace ask::sim {

/**
 * The persistent worker pool behind run_isolated().
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

void
ParallelEngine::run_isolated(const std::vector<std::function<void()>>& jobs)
{
    if (options_.num_threads <= 1 || jobs.size() <= 1) {
        for (const auto& job : jobs)
            job();
        return;
    }
    if (!pool_)
        pool_ = std::make_unique<Pool>(options_.num_threads - 1);
    pool_->run(jobs.size(), [&jobs](std::size_t i) { jobs[i](); });
}

}  // namespace ask::sim
