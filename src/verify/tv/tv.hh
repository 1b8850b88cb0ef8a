/**
 * @file
 * Translation validation for the MiniC compiler (the d16tv engine).
 *
 * Each checker takes the before/after versions of one transformation
 * and statically proves them equivalent, returning std::nullopt on
 * success or the single diagnostic that pinpoints the first divergence:
 *
 *   checkIrPass    IR-to-IR passes (opt.cc passes, legalize,
 *                  lower-calls-abi): per-block symbolic evaluation into
 *                  normalized value graphs (see term.hh), with
 *                  block-correspondence recovery for simplify-cfg and
 *                  code-motion checking for licm.
 *   checkRegalloc  a spill/fill-aware virtual-to-physical def-use
 *                  simulation against the Allocation's location map.
 *   checkSchedule  dependence preservation over the scheduler's
 *                  delay-slot reordering of the final item stream.
 *
 * Diagnostic codes are stable (tv-structure, tv-block-mismatch,
 * tv-term-mismatch, tv-effect-mismatch, tv-value-mismatch,
 * tv-licm-motion, tv-regalloc-loc, tv-sched-stream, tv-sched-reorder);
 * tests and CI match on them. Every checker stops at the first broken
 * obligation, so one defect yields exactly one diagnostic.
 *
 * The two PassValidator implementations plug the checkers into the
 * compiler's CompileOptions::validator seam: the throwing one turns any
 * finding into a PanicError (fuzzing, sweeps), the collecting one
 * records findings and per-pass timing (the d16tv CLI).
 */

#ifndef D16SIM_VERIFY_TV_TV_HH
#define D16SIM_VERIFY_TV_TV_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mc/options.hh"
#include "mc/regalloc.hh"
#include "verify/diag.hh"

namespace d16sim::assem
{
struct AsmItem;
} // namespace d16sim::assem

namespace d16sim::verify::tv
{

/** Validate one IR-to-IR pass. `pass` selects the checking strategy
 *  ("opt:simplify-cfg" recovers a block correspondence, "opt:licm"
 *  checks code motion, "lower-calls-abi" adds calling-convention
 *  replay; everything else is checked block-by-block). env may be null
 *  for the machine-independent passes. */
std::optional<Diag> checkIrPass(const mc::IrFunction &before,
                                const mc::IrFunction &after,
                                const char *pass,
                                const mc::MachineEnv *env);

/** Validate register allocation + spill rewriting: simulate `after`
 *  over physical locations and check every live-out virtual register's
 *  value sits in its assigned location at each block boundary. */
std::optional<Diag> checkRegalloc(const mc::IrFunction &before,
                                  const mc::IrFunction &after,
                                  const mc::Allocation &alloc,
                                  const mc::MachineEnv &env);

/** Validate instruction scheduling over the final item stream. */
std::optional<Diag> checkSchedule(
    const std::vector<assem::AsmItem> &before,
    const std::vector<assem::AsmItem> &after, const mc::MachineEnv &env);

/** Per-pass accounting of a CollectingValidator. */
struct PassStats
{
    int64_t checks = 0;    //!< function (or stream) validations run
    int64_t failures = 0;  //!< validations that produced a diagnostic
    int64_t micros = 0;    //!< wall time spent checking
};

/** Validator that panics (PanicError) on the first finding; what
 *  core::build installs for CompileOptions::validateEach. */
std::shared_ptr<mc::PassValidator> makeThrowingValidator();

/** Validator that records findings into a DiagEngine and accumulates
 *  per-pass statistics; what d16tv drives. With a `passFilter`, only
 *  passes whose name contains it are checked. */
class CollectingValidator : public mc::PassValidator
{
  public:
    explicit CollectingValidator(DiagEngine &de, std::string passFilter = {})
        : de_(de), filter_(std::move(passFilter))
    {}

    void afterIrPass(const mc::IrFunction &before,
                     const mc::IrFunction &after, const char *pass,
                     const mc::MachineEnv *env) override;
    void afterRegalloc(const mc::IrFunction &before,
                       const mc::IrFunction &after,
                       const mc::Allocation &alloc,
                       const mc::MachineEnv &env) override;
    void afterSchedule(const std::vector<assem::AsmItem> &before,
                       const std::vector<assem::AsmItem> &after,
                       const mc::MachineEnv &env) override;

    const std::map<std::string, PassStats> &stats() const
    {
        return stats_;
    }

  private:
    bool
    wanted(std::string_view pass) const
    {
        return pass.find(filter_) != std::string_view::npos;
    }

    void record(const char *pass, std::optional<Diag> d,
                int64_t micros);

    DiagEngine &de_;
    std::string filter_;
    std::map<std::string, PassStats> stats_;
};

} // namespace d16sim::verify::tv

#endif // D16SIM_VERIFY_TV_TV_HH
