/**
 * @file
 * The two PassValidator implementations over the tv checkers: one that
 * panics on the first finding (installed by core::build when
 * CompileOptions::validateEach is set, so sweeps and fuzzing abort the
 * moment a pass miscompiles), and one that records findings plus
 * per-pass timing for the d16tv CLI.
 */

#include <chrono>

#include "support/error.hh"
#include "verify/tv/tv.hh"

namespace d16sim::verify::tv
{

namespace
{

int64_t
microsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

class ThrowingValidator final : public mc::PassValidator
{
  public:
    void
    afterIrPass(const mc::IrFunction &before, const mc::IrFunction &after,
                const char *pass, const mc::MachineEnv *env) override
    {
        if (auto d = checkIrPass(before, after, pass, env))
            panic("translation validation failed: ",
                  DiagEngine::format(*d));
    }

    void
    afterRegalloc(const mc::IrFunction &before,
                  const mc::IrFunction &after, const mc::Allocation &alloc,
                  const mc::MachineEnv &env) override
    {
        if (auto d = checkRegalloc(before, after, alloc, env))
            panic("translation validation failed: ",
                  DiagEngine::format(*d));
    }

    void
    afterSchedule(const std::vector<assem::AsmItem> &before,
                  const std::vector<assem::AsmItem> &after,
                  const mc::MachineEnv &env) override
    {
        if (auto d = checkSchedule(before, after, env))
            panic("translation validation failed: ",
                  DiagEngine::format(*d));
    }
};

} // namespace

std::shared_ptr<mc::PassValidator>
makeThrowingValidator()
{
    return std::make_shared<ThrowingValidator>();
}

void
CollectingValidator::afterIrPass(const mc::IrFunction &before,
                                 const mc::IrFunction &after,
                                 const char *pass,
                                 const mc::MachineEnv *env)
{
    if (!wanted(pass))
        return;
    const auto t0 = std::chrono::steady_clock::now();
    auto d = checkIrPass(before, after, pass, env);
    record(pass, std::move(d), microsSince(t0));
}

void
CollectingValidator::afterRegalloc(const mc::IrFunction &before,
                                   const mc::IrFunction &after,
                                   const mc::Allocation &alloc,
                                   const mc::MachineEnv &env)
{
    if (!wanted("regalloc"))
        return;
    const auto t0 = std::chrono::steady_clock::now();
    auto d = checkRegalloc(before, after, alloc, env);
    record("regalloc", std::move(d), microsSince(t0));
}

void
CollectingValidator::afterSchedule(const std::vector<assem::AsmItem> &before,
                                   const std::vector<assem::AsmItem> &after,
                                   const mc::MachineEnv &env)
{
    if (!wanted("sched"))
        return;
    const auto t0 = std::chrono::steady_clock::now();
    auto d = checkSchedule(before, after, env);
    record("sched", std::move(d), microsSince(t0));
}

void
CollectingValidator::record(const char *pass, std::optional<Diag> d,
                            int64_t micros)
{
    PassStats &s = stats_[pass];
    ++s.checks;
    s.micros += micros;
    if (d) {
        ++s.failures;
        de_.report(std::move(*d));
    }
}

} // namespace d16sim::verify::tv
