#include "verify/diag.hh"

#include <sstream>

#include "support/strings.hh"

namespace d16sim::verify
{

std::string_view
severityName(Severity s)
{
    switch (s) {
      case Severity::Note: return "note";
      case Severity::Warning: return "warning";
      case Severity::Error: return "error";
    }
    return "?";
}

void
DiagEngine::report(Diag d)
{
    if (d.unit.empty())
        d.unit = unit_;
    diags_.push_back(std::move(d));
}

int
DiagEngine::count(Severity s) const
{
    int n = 0;
    for (const Diag &d : diags_)
        if (d.severity == s)
            ++n;
    return n;
}

bool
DiagEngine::has(std::string_view code) const
{
    for (const Diag &d : diags_)
        if (d.code == code)
            return true;
    return false;
}

std::string
DiagEngine::format(const Diag &d)
{
    std::ostringstream os;
    os << severityName(d.severity) << "[" << d.code << "]";
    if (!d.unit.empty())
        os << " " << d.unit;
    if (d.hasAddr)
        os << " @" << hexString(d.addr);
    if (!d.symbol.empty())
        os << " (" << d.symbol << ")";
    if (d.block >= 0) {
        os << " bb" << d.block;
        if (d.inst >= 0)
            os << ":" << d.inst;
    }
    if (d.line > 0)
        os << " line " << d.line;
    os << ": " << d.message;
    return os.str();
}

void
DiagEngine::renderText(std::ostream &os) const
{
    for (const Diag &d : diags_)
        os << format(d) << "\n";
}

Json
DiagEngine::json() const
{
    Json out = Json::array();
    for (const Diag &d : diags_) {
        Json j = Json::object();
        j["severity"] = std::string(severityName(d.severity));
        j["code"] = d.code;
        j["unit"] = d.unit;
        if (d.hasAddr)
            j["addr"] = d.addr;
        if (!d.symbol.empty())
            j["symbol"] = d.symbol;
        if (d.block >= 0) {
            j["block"] = d.block;
            if (d.inst >= 0)
                j["inst"] = d.inst;
        }
        if (d.line > 0)
            j["line"] = d.line;
        j["message"] = d.message;
        out.push(std::move(j));
    }
    return out;
}

} // namespace d16sim::verify
