#include "support/cli.hh"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>

#include "support/strings.hh"

namespace d16sim::cli
{

Cli::Cli(std::string prog, std::string usageText)
    : prog_(std::move(prog)), usage_(std::move(usageText))
{}

void
Cli::flag(const std::string &name, bool *target)
{
    flag(name, [target] { *target = true; });
}

void
Cli::flag(const std::string &name, std::function<void()> fn)
{
    Option o;
    o.name = name;
    o.onFlag = std::move(fn);
    options_.push_back(std::move(o));
}

void
Cli::value(const std::string &name,
           std::function<bool(const std::string &)> fn)
{
    Option o;
    o.name = name;
    o.takesValue = true;
    o.onValue = std::move(fn);
    options_.push_back(std::move(o));
}

void
Cli::intValue(const std::string &name, int *target)
{
    value(name, [target](const std::string &v) {
        // The whole string must be one base-10 int: "2OO", "abc", ""
        // and out-of-range values are bad usage.
        if (v.empty() || std::isspace(static_cast<unsigned char>(v[0])))
            return false;
        char *end = nullptr;
        errno = 0;
        const long n = std::strtol(v.c_str(), &end, 10);
        if (errno || *end != '\0' || n < INT_MIN || n > INT_MAX)
            return false;
        *target = static_cast<int>(n);
        return true;
    });
}

void
Cli::stringValue(const std::string &name, std::string *target)
{
    value(name, [target](const std::string &v) {
        *target = v;
        return true;
    });
}

void
Cli::positionals(std::vector<std::string> *target)
{
    positionals_ = target;
}

const Cli::Option *
Cli::find(const std::string &name) const
{
    for (const Option &o : options_)
        if (o.name == name)
            return &o;
    return nullptr;
}

CliStatus
Cli::parse(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            printUsage();
            return CliStatus::Help;
        }
        if (!a.empty() && a[0] == '-') {
            const Option *o = find(a);
            if (!o) {
                std::fprintf(stderr, "%s: unknown option %s\n",
                             prog_.c_str(), a.c_str());
                printUsage();
                return CliStatus::Error;
            }
            if (!o->takesValue) {
                o->onFlag();
                continue;
            }
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s needs a value\n",
                             prog_.c_str(), a.c_str());
                printUsage();
                return CliStatus::Error;
            }
            if (!o->onValue(argv[++i])) {
                std::fprintf(stderr, "%s: bad value for %s: %s\n",
                             prog_.c_str(), a.c_str(), argv[i]);
                printUsage();
                return CliStatus::Error;
            }
            continue;
        }
        if (!positionals_) {
            std::fprintf(stderr, "%s: unexpected argument %s\n",
                         prog_.c_str(), a.c_str());
            printUsage();
            return CliStatus::Error;
        }
        positionals_->push_back(a);
    }
    return CliStatus::Ok;
}

void
Cli::printUsage() const
{
    std::fprintf(stderr, "usage: %s %s\n", prog_.c_str(), usage_.c_str());
}

std::vector<std::string>
csvList(const std::string &s)
{
    std::vector<std::string> out;
    for (std::string_view f : split(s, ','))
        if (!trim(f).empty())
            out.emplace_back(trim(f));
    return out;
}

} // namespace d16sim::cli
