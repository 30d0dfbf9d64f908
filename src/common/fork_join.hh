/**
 * @file
 * Fork-join over independent indices.
 *
 * parallelFor(n, fn) calls fn(i) for every i in [0, n) and returns
 * once all of them have finished. Where the calls run depends on the
 * calling thread:
 *
 *  - On a thread that is not a pool worker (tests, embedders, a
 *    --jobs 1 run) it is a plain serial loop in index order on the
 *    caller's thread.
 *  - On a runner::ScenarioPool worker with more than one worker, the
 *    indices are offered to the pool's idle workers; the calling
 *    thread runs the ones nobody has taken (runner/pool.hh says how).
 *
 * Either way, an exception thrown by fn(i) is captured per index.
 * After every index has finished, the lowest-indexed exception is
 * rethrown: the error a serial loop would have hit first. The
 * remaining indices still run.
 *
 * fn must write only to state owned by its index (a result slot i),
 * so that results are independent of where and in which order the
 * indices ran. This file is a leaf: it knows nothing of the pool; the
 * pool installs itself as the worker thread's ForkJoinExecutor.
 */

#ifndef CANON_COMMON_FORK_JOIN_HH
#define CANON_COMMON_FORK_JOIN_HH

#include <cstddef>
#include <functional>

namespace canon
{

using IndexFn = std::function<void(std::size_t)>;

/** Where parallelFor sends its indices on a pool worker thread. */
class ForkJoinExecutor
{
  public:
    /**
     * Run @p fn for every index in [0, @p n) and return once all have
     * finished. @p fn never throws (parallelFor captures).
     */
    virtual void forkJoin(std::size_t n, const IndexFn &fn) = 0;

  protected:
    ~ForkJoinExecutor() = default;
};

/**
 * Installs @p executor as the current thread's ForkJoinExecutor for
 * the enclosing scope; null makes parallelFor serial (re-entrant).
 */
class ScopedForkJoinExecutor
{
  public:
    explicit ScopedForkJoinExecutor(ForkJoinExecutor *executor);
    ~ScopedForkJoinExecutor();

    ScopedForkJoinExecutor(const ScopedForkJoinExecutor &) = delete;
    ScopedForkJoinExecutor &
    operator=(const ScopedForkJoinExecutor &) = delete;

  private:
    ForkJoinExecutor *prev_;
};

/** Run @p fn for every index in [0, @p n); see the file comment. */
void parallelFor(std::size_t n, const IndexFn &fn);

} // namespace canon

#endif // CANON_COMMON_FORK_JOIN_HH
