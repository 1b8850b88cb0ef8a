/**
 * @file
 * Diagnostics engine for the toolchain verification layer.
 *
 * Every analyzer (the IR verifier, the machine-code linter) reports
 * through a DiagEngine: a flat list of Diag records with a severity, a
 * stable machine-readable code (e.g. "mc-branch-in-delay-slot"), a
 * human message, and whatever location coordinates the producing layer
 * has — IR block/instruction indices for the verifier, image addresses
 * plus assembler source lines and the nearest preceding symbol for the
 * linter. Output is either human-readable text or a Json array so CI
 * can diff lint results across revisions (scripts/check.sh).
 */

#ifndef D16SIM_VERIFY_DIAG_HH
#define D16SIM_VERIFY_DIAG_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "support/json.hh"

namespace d16sim::verify
{

enum class Severity : uint8_t
{
    Note,     //!< informational (perf hints); never fails a run
    Warning,  //!< suspicious but not provably wrong
    Error,    //!< a broken invariant; the artifact is untrustworthy
};

std::string_view severityName(Severity s);

/** One finding. Location fields are optional; unset ones are omitted
 *  from the rendered output. */
struct Diag
{
    Severity severity = Severity::Error;
    std::string code;     //!< stable identifier, e.g. "ir-use-before-def"
    std::string message;

    std::string unit;     //!< compilation unit / workload / function
    std::string symbol;   //!< nearest preceding text symbol (linter)
    uint32_t addr = 0;    //!< image address (linter)
    bool hasAddr = false;
    int line = 0;         //!< assembler source line; 0 = unknown
    int block = -1;       //!< IR basic-block index (verifier)
    int inst = -1;        //!< IR instruction index within the block
};

class DiagEngine
{
  public:
    void report(Diag d);

    // Convenience producers used by the analyzers.
    void
    error(std::string code, std::string message)
    {
        report({Severity::Error, std::move(code), std::move(message),
                {}, {}, 0, false, 0, -1, -1});
    }

    const std::vector<Diag> &diags() const { return diags_; }
    bool empty() const { return diags_.empty(); }

    int count(Severity s) const;
    int errors() const { return count(Severity::Error); }
    int warnings() const { return count(Severity::Warning); }
    int notes() const { return count(Severity::Note); }

    /** Errors + warnings: what `d16lint` (and CI) fail on. */
    int failures() const { return errors() + warnings(); }

    bool has(std::string_view code) const;

    /** Context prefix attached to the `unit` field of every subsequent
     *  report (e.g. "perm/DLXe"). */
    void setUnit(std::string unit) { unit_ = std::move(unit); }
    const std::string &unit() const { return unit_; }

    /** Render all diagnostics, one per line, human-readable. */
    void renderText(std::ostream &os) const;

    /** One object per diagnostic, in report order; unset location
     *  fields are omitted. */
    Json json() const;

    /** Text rendering of one diagnostic (also used in exceptions). */
    static std::string format(const Diag &d);

  private:
    std::vector<Diag> diags_;
    std::string unit_;
};

} // namespace d16sim::verify

#endif // D16SIM_VERIFY_DIAG_HH
