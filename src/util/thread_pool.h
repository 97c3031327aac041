#ifndef BIOPERF_UTIL_THREAD_POOL_H_
#define BIOPERF_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace bioperf::util {

/**
 * A fixed-size worker pool over a single FIFO task queue.
 *
 * Deliberately minimal — no work stealing, no priorities — because
 * the simulation workloads it serves (independent (app, platform,
 * variant) timing jobs in core::Simulator::sweep()) are coarse,
 * embarrassingly parallel and far longer than any queue overhead.
 * Tasks must not submit to the pool they run on from within
 * themselves and then block on the result (the classic self-deadlock);
 * sweep-style fan-out from the caller is the intended shape.
 *
 * Thread-affinity contract for simulation code: each job owns its
 * Interpreter, cache hierarchy, predictor and sinks outright. Nothing
 * mutable is shared between jobs, so no locking is needed beyond the
 * queue's own mutex.
 */
class ThreadPool
{
  public:
    /** @param threads worker count; 0 = defaultThreads(). */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Hardware concurrency, overridable with the BIOPERF_THREADS
     * environment variable (useful for CI and for the single-thread /
     * multi-thread equivalence tests).
     */
    static unsigned defaultThreads();

    /**
     * Enqueues @a fn and returns a future for its result. Exceptions
     * thrown by the task surface on future::get().
     */
    template <typename F>
    auto submit(F &&fn) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> result = task->get_future();
        {
            std::lock_guard<std::mutex> lock(mu_);
            tasks_.push([task] { (*task)(); });
        }
        cv_.notify_one();
        return result;
    }

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> tasks_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
};

} // namespace bioperf::util

#endif // BIOPERF_UTIL_THREAD_POOL_H_
