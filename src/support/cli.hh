/**
 * @file
 * Minimal command-line parser shared by the tools (d16lint, d16sweep,
 * d16cfa). Replaces the hand-rolled argv loops each tool used to carry:
 * one registration call per option, one parse() call, and the shared
 * conventions — `--help`/`-h` prints the usage, an unknown option or a
 * missing value prints the usage to stderr — live here once.
 */

#ifndef D16SIM_SUPPORT_CLI_HH
#define D16SIM_SUPPORT_CLI_HH

#include <functional>
#include <string>
#include <vector>

namespace d16sim::cli
{

enum class CliStatus
{
    Ok,    //!< parsed; run the tool
    Help,  //!< --help was given; usage printed, exit 0
    Error, //!< bad usage; message + usage printed, exit 2
};

class Cli
{
  public:
    /** `usageText` is the part after "usage: <prog> ". */
    Cli(std::string prog, std::string usageText);

    /** Register `--name` setting *target = true. */
    void flag(const std::string &name, bool *target);

    /** Register `--name` invoking a callback. */
    void flag(const std::string &name, std::function<void()> fn);

    /** Register `--name VALUE`; the handler returns false to reject
     *  the value (bad usage). */
    void value(const std::string &name,
               std::function<bool(const std::string &)> fn);

    /** Register `--name N` parsing a decimal integer; anything but a
     *  whole base-10 value in int range is bad usage. */
    void intValue(const std::string &name, int *target);

    /** Register `--name S` storing the raw string. */
    void stringValue(const std::string &name, std::string *target);

    /** Accept positional arguments (collected in order). Without this,
     *  a positional argument is bad usage. */
    void positionals(std::vector<std::string> *target);

    CliStatus parse(int argc, char **argv);

    /** Print "usage: <prog> <usageText>" to stderr. */
    void printUsage() const;

    const std::string &prog() const { return prog_; }

  private:
    struct Option
    {
        std::string name;
        bool takesValue = false;
        std::function<void()> onFlag;
        std::function<bool(const std::string &)> onValue;
    };

    const Option *find(const std::string &name) const;

    std::string prog_;
    std::string usage_;
    std::vector<Option> options_;
    std::vector<std::string> *positionals_ = nullptr;
};

/** Split "a,b,c" into trimmed, non-empty fields. */
std::vector<std::string> csvList(const std::string &s);

} // namespace d16sim::cli

#endif // D16SIM_SUPPORT_CLI_HH
