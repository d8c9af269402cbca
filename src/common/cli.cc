#include "cli.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "logging.hh"

namespace pcstall
{

CliOptions::CliOptions(int argc, char **argv, std::vector<CliFlag> flags,
                       std::string synopsis_)
    : declared(std::move(flags)), synopsis(std::move(synopsis_))
{
    if (argc > 0 && argv != nullptr && argv[0] != nullptr)
        argv0 = argv[0];
    if (synopsis.empty())
        synopsis = argv0.substr(argv0.find_last_of('/') + 1) + " [options]";
    bool options_done = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (!options_done && (arg == "--help" || arg == "-h")) {
            std::puts(usage().c_str());
            throw CleanExit{};
        }
        if (options_done || arg.rfind("--", 0) != 0) {
            extras.push_back(arg);
            continue;
        }
        if (arg == "--") {
            options_done = true;
            continue;
        }
        std::string name = arg.substr(2);
        const std::size_t eq = name.find('=');
        const bool inline_value = eq != std::string::npos;
        std::string value = inline_value ? name.substr(eq + 1) : "1";
        if (inline_value)
            name.resize(eq);
        const auto flag = std::find_if(
            declared.begin(), declared.end(),
            [&](const CliFlag &f) { return f.name == name; });
        if (flag == declared.end())
            fatal("unknown option --" + name + "\n" + usage());
        if (!flag->value.empty() && !inline_value) {
            if (i + 1 >= argc ||
                std::string(argv[i + 1]).rfind("--", 0) == 0) {
                noteError("--" + name + ": missing " + flag->value);
                continue;
            }
            value = argv[++i];
        }
        values[name] = value;
    }
}

std::string
CliOptions::usage() const
{
    std::string text = "usage: " + synopsis;
    if (declared.empty())
        return text;
    std::string line = "\noptions:";
    for (const CliFlag &f : declared) {
        const std::string item = " [--" + f.name +
            (f.value.empty() ? "" : " " + f.value) + "]";
        if (line.size() + item.size() > 79) {
            text += line;
            line = "\n        ";
        }
        line += item;
    }
    return text + line;
}

void
CliOptions::noteError(const std::string &message) const
{
    parseErrors.push_back(message);
    warn("bad option " + message + " (using the default)");
}

const std::string *
CliOptions::find(const std::string &name) const
{
    if (std::none_of(declared.begin(), declared.end(),
                     [&](const CliFlag &f) { return f.name == name; }))
        panic("option --" + name + " is read but not declared");
    const auto it = values.find(name);
    return it == values.end() ? nullptr : &it->second;
}

bool
CliOptions::has(const std::string &name) const
{
    return find(name) != nullptr;
}

std::string
CliOptions::get(const std::string &name, const std::string &def) const
{
    const std::string *value = find(name);
    return value == nullptr ? def : *value;
}

std::int64_t
CliOptions::getInt(const std::string &name, std::int64_t def) const
{
    const std::string *value = find(name);
    if (value == nullptr)
        return def;
    char *end = nullptr;
    const std::int64_t parsed = std::strtoll(value->c_str(), &end, 10);
    if (end == value->c_str() || *end != '\0') {
        noteError("--" + name + ": '" + *value + "' is not an integer");
        return def;
    }
    return parsed;
}

double
CliOptions::getDouble(const std::string &name, double def) const
{
    const std::string *value = find(name);
    if (value == nullptr)
        return def;
    char *end = nullptr;
    const double parsed = std::strtod(value->c_str(), &end);
    if (end == value->c_str() || *end != '\0') {
        noteError("--" + name + ": '" + *value + "' is not a number");
        return def;
    }
    return parsed;
}

} // namespace pcstall
