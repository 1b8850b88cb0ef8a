/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span is one call into a layer, recorded on the lane (worker thread)
 * that made it: a metric key naming where its self time books
 * ("mc.opt_s", "replay.cache_s", ...), a start and an end. Spans on one
 * lane nest strictly, so a span's self time is its duration minus the
 * durations of its direct children. Every lane has a root span covering
 * its whole life; the root's self time is the lane's unattributed time
 * (idle waits and glue no layer span covers). By construction
 *
 *     sum of all self times (roots included) == sum of lane lifetimes
 *
 * which the traced run checks. Spans are kept in memory and written once,
 * at the end, as Chrome trace-event JSON.
 *
 * Recording is off unless the calling thread is bound to a lane (see
 * LanePool), so the same helpers cost one thread-local load elsewhere.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench
{

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Key of a lane's root span: time no layer span covers. */
inline constexpr const char *kUnattributed = "unattributed";

struct SpanRec
{
    const char *key = nullptr;
    int64_t startNs = 0;
    int64_t endNs = 0;
    int64_t childNs = 0;
    int parent = -1;
};

/** One thread's spans and counters. */
struct Lane
{
    int tid = 0;
    std::vector<SpanRec> spans;
    std::vector<int> open;
    std::map<std::string, double> counts;

    void begin(const char *key);
    /** Close the innermost open span, optionally renaming it (compile
     *  phases are named by the boundary that ends them). */
    void end(const char *key = nullptr);
};

/** The lane the calling thread records on; null = not tracing. */
Lane *&currentLane();

class Span
{
  public:
    explicit Span(const char *key) : lane_(currentLane())
    {
        if (lane_)
            lane_->begin(key);
    }
    ~Span()
    {
        if (lane_)
            lane_->end();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Lane *lane_;
};

/** Add `v` to a named counter on the calling thread's lane. */
inline void
count(const char *key, double v)
{
    if (Lane *lane = currentLane())
        lane->counts[key] += v;
}

class Tracer
{
  public:
    Lane *addLane();

    struct Summary
    {
        std::map<std::string, double> self;    //!< key -> self seconds
        std::map<std::string, double> counts;  //!< summed over lanes
        double laneSeconds = 0;  //!< sum of lane lifetimes
        double selfSeconds = 0;  //!< sum of every self time
        int lanes = 0;
    };
    Summary summarize() const;

    /** Chrome trace-event JSON ("X" complete events, one tid per lane). */
    void writeChrome(const std::string &path, const std::string &processName,
                     int64_t epochNs) const;

  private:
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Lane>> lanes_;
};

/**
 * Fixed-size worker pool whose threads each record on their own lane;
 * the same shape as the sweep engine's pool (tasks may submit further
 * tasks, wait() returns when all have run and rethrows the first
 * error). The caller thread only submits and waits, so the lanes are
 * the whole traced work.
 */
class LanePool
{
  public:
    LanePool(Tracer &tracer, int threads);
    ~LanePool();
    LanePool(const LanePool &) = delete;
    LanePool &operator=(const LanePool &) = delete;

    void submit(std::function<void()> task);
    void wait();

  private:
    void work(Lane *lane);

    std::mutex mutex_;
    std::condition_variable cv_;
    std::condition_variable idle_;
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    int outstanding_ = 0;
    bool done_ = false;
    std::exception_ptr error_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
