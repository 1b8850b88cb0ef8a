/**
 * @file
 * The one parallel loop the tools, bench drivers, sweep engine and tests
 * share.
 */

#ifndef D16SIM_SUPPORT_PARALLEL_HH
#define D16SIM_SUPPORT_PARALLEL_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace d16sim
{

/** The default worker count: one per hardware thread, at least one. */
inline int
hardwareThreads()
{
    return static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
}

/**
 * Run fn(i) for i in [0, n) on min(threads, n) threads, the calling
 * thread included (threads < 1 counts as 1); threads take indices in
 * order from one shared counter. Callers stay deterministic by writing
 * slot i of a pre-sized vector. The first exception any call throws
 * stops further indices from being handed out and is rethrown here
 * once every thread has joined.
 */
template <typename Fn>
void
parallelFor(size_t n, int threads, Fn &&fn)
{
    std::atomic<size_t> next{0};
    std::mutex mutex;
    std::exception_ptr error;
    auto fail = [&] {
        std::lock_guard<std::mutex> lock(mutex);
        if (!error)
            error = std::current_exception();
        next = n;
    };
    auto worker = [&] {
        for (size_t i = next++; i < n; i = next++) {
            try {
                fn(i);
            } catch (...) {
                fail();
            }
        }
    };
    const size_t width =
        std::min(static_cast<size_t>(std::max(threads, 1)), n);
    std::vector<std::thread> pool;
    pool.reserve(width);
    for (size_t t = 1; t < width; ++t) {
        try {
            pool.emplace_back(worker);
        } catch (...) {
            // No thread to spare: fail the loop, but still join the
            // threads already running.
            fail();
            break;
        }
    }
    worker();
    for (std::thread &t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace d16sim

#endif // D16SIM_SUPPORT_PARALLEL_HH
