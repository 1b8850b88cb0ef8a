#include "tracer.hh"

#include <fstream>

#include "support/error.hh"
#include "support/json.hh"

namespace perfbench
{

Lane *&
currentLane()
{
    thread_local Lane *lane = nullptr;
    return lane;
}

void
Lane::begin(const char *key)
{
    SpanRec s;
    s.key = key;
    s.startNs = nowNs();
    s.parent = open.empty() ? -1 : open.back();
    spans.push_back(s);
    open.push_back(static_cast<int>(spans.size()) - 1);
}

void
Lane::end(const char *key)
{
    SpanRec &s = spans[open.back()];
    open.pop_back();
    s.endNs = nowNs();
    if (key)
        s.key = key;
    if (s.parent >= 0)
        spans[s.parent].childNs += s.endNs - s.startNs;
}

Lane *
Tracer::addLane()
{
    std::lock_guard<std::mutex> lock(mutex_);
    lanes_.push_back(std::make_unique<Lane>());
    lanes_.back()->tid = static_cast<int>(lanes_.size());
    return lanes_.back().get();
}

Tracer::Summary
Tracer::summarize() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Summary sum;
    sum.lanes = static_cast<int>(lanes_.size());
    for (const auto &lane : lanes_) {
        d16sim::panicIf(!lane->open.empty(), "perfbench: unclosed span");
        for (const SpanRec &s : lane->spans) {
            const double self =
                static_cast<double>(s.endNs - s.startNs - s.childNs) * 1e-9;
            sum.self[s.key] += self;
            sum.selfSeconds += self;
            if (s.parent < 0)
                sum.laneSeconds +=
                    static_cast<double>(s.endNs - s.startNs) * 1e-9;
        }
        for (const auto &[k, v] : lane->counts)
            sum.counts[k] += v;
    }
    return sum;
}

void
Tracer::writeChrome(const std::string &path, const std::string &processName,
                    int64_t epochNs) const
{
    using d16sim::Json;
    std::lock_guard<std::mutex> lock(mutex_);
    Json events = Json::array();
    Json meta = Json::object();
    meta["name"] = Json("process_name");
    meta["ph"] = Json("M");
    meta["pid"] = Json(1);
    Json margs = Json::object();
    margs["name"] = Json(processName);
    meta["args"] = margs;
    events.push(meta);
    for (const auto &lane : lanes_) {
        for (const SpanRec &s : lane->spans) {
            Json e = Json::object();
            e["name"] = Json(s.key);
            e["cat"] = Json(std::string(s.key).substr(
                0, std::string(s.key).find('.')));
            e["ph"] = Json("X");
            e["pid"] = Json(1);
            e["tid"] = Json(lane->tid);
            e["ts"] = Json(static_cast<double>(s.startNs - epochNs) / 1e3);
            e["dur"] = Json(static_cast<double>(s.endNs - s.startNs) / 1e3);
            events.push(e);
        }
    }
    Json doc = Json::object();
    doc["traceEvents"] = events;
    doc["displayTimeUnit"] = Json("ms");
    std::ofstream out(path);
    if (!out)
        d16sim::fatal("perfbench: cannot write ", path);
    out << doc.dump() << "\n";
}

LanePool::LanePool(Tracer &tracer, int threads)
{
    for (int i = 0; i < std::max(1, threads); ++i) {
        Lane *lane = tracer.addLane();
        workers_.emplace_back([this, lane] { work(lane); });
    }
}

LanePool::~LanePool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        done_ = true;
    }
    cv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
LanePool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++outstanding_;
        queue_.push_back(std::move(task));
    }
    cv_.notify_one();
}

void
LanePool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return outstanding_ == 0; });
    if (error_) {
        std::exception_ptr e = error_;
        error_ = nullptr;
        std::rethrow_exception(e);
    }
}

void
LanePool::work(Lane *lane)
{
    currentLane() = lane;
    lane->begin(kUnattributed);
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        cv_.wait(lock, [this] { return done_ || !queue_.empty(); });
        if (queue_.empty()) {
            if (done_)
                break;
            continue;
        }
        std::function<void()> task = std::move(queue_.front());
        queue_.pop_front();
        lock.unlock();
        try {
            task();
        } catch (...) {
            std::lock_guard<std::mutex> elock(mutex_);
            if (!error_)
                error_ = std::current_exception();
        }
        lock.lock();
        if (--outstanding_ == 0)
            idle_.notify_all();
    }
    lock.unlock();
    lane->end();
    currentLane() = nullptr;
}

} // namespace perfbench
