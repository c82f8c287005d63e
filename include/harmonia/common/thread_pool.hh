/**
 * @file
 * Fixed-size worker thread pool with a chunked parallel-for.
 *
 * The simulator's heavy loops (campaign cells, training-data
 * collection, sensitivity sweeps, the model checker) are
 * embarrassingly parallel over independent tasks — one (kernel,
 * iteration) invocation or one campaign cell each — evaluated against
 * a const device model, with results landing in pre-assigned output
 * slots. A single lattice run is never split across workers: it is
 * too short for the hand-off to pay. ThreadPool provides exactly that
 * shape —
 * parallelFor(count, chunk, body) invokes body(i) for every index in
 * [0, count) exactly once, with dynamic chunk scheduling for load
 * balance. Because each index owns its output slot, results are
 * bit-identical regardless of thread count or scheduling; the
 * determinism tests in tests/test_sweep_determinism.cpp and
 * tests/test_invariants.cpp pin this down.
 *
 * numThreads == 1 is an explicit serial fallback: no worker threads
 * are created and the body runs inline on the calling thread in
 * ascending index order, which keeps single-threaded debugging and
 * profiling trivial.
 */

#ifndef HARMONIA_COMMON_THREAD_POOL_HH
#define HARMONIA_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace harmonia
{

/** Fixed-size worker pool running chunked parallel loops. */
class ThreadPool
{
  public:
    /**
     * @param numThreads Total workers participating in each loop,
     *        including the calling thread. 1 = serial fallback (no
     *        threads spawned). Values < 1 are clamped to 1.
     */
    explicit ThreadPool(int numThreads = 1);

    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Workers participating in each loop (>= 1, incl. the caller). */
    int numThreads() const { return numThreads_; }

    /**
     * Run body(i) for every i in [0, count) exactly once and block
     * until all calls returned. Indices are claimed in contiguous
     * chunks of @p chunk (0 = pick automatically). The calling thread
     * participates, so the pool is never idle-blocked on itself and
     * nested calls cannot deadlock. If any invocation throws, the
     * first exception (by completion order) is rethrown here after the
     * loop drains; remaining unclaimed chunks are abandoned.
     */
    void parallelFor(size_t count, size_t chunk,
                     const std::function<void(size_t)> &body);

    /** Hardware concurrency, clamped to >= 1. */
    static int defaultThreads();

  private:
    struct ForJob;

    void workerLoop();
    static void runChunks(ForJob &job);

    const int numThreads_;
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable wakeCv_;
    std::shared_ptr<ForJob> job_;   ///< Current loop, guarded by mutex_.
    uint64_t generation_ = 0;       ///< Bumped per parallelFor call.
    bool stop_ = false;
};

} // namespace harmonia

#endif // HARMONIA_COMMON_THREAD_POOL_HH
