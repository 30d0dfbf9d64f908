#include "common/fork_join.hh"

#include <exception>
#include <vector>

namespace canon
{

namespace
{

thread_local ForkJoinExecutor *tlsExecutor = nullptr;

} // namespace

ScopedForkJoinExecutor::ScopedForkJoinExecutor(ForkJoinExecutor *executor)
    : prev_(tlsExecutor)
{
    tlsExecutor = executor;
}

ScopedForkJoinExecutor::~ScopedForkJoinExecutor()
{
    tlsExecutor = prev_;
}

void
parallelFor(std::size_t n, const IndexFn &fn)
{
    std::vector<std::exception_ptr> errors(n);
    const IndexFn guarded = [&](std::size_t i) {
        try {
            fn(i);
        } catch (...) {
            errors[i] = std::current_exception();
        }
    };
    if (tlsExecutor && n > 1) {
        tlsExecutor->forkJoin(n, guarded);
    } else {
        for (std::size_t i = 0; i < n; ++i)
            guarded(i);
    }
    for (const auto &e : errors)
        if (e)
            std::rethrow_exception(e);
}

} // namespace canon
