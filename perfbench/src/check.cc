#include "check.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench
{

std::string
digest(const std::string &bytes)
{
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

bool
parseExpected(const std::string &text,
              std::map<std::string, std::string> &out, std::string &error)
{
    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key, value, extra;
        if (!(fields >> key >> value) || (fields >> extra)) {
            error = "expected.txt line " + std::to_string(lineno) +
                    ": want 'key value'";
            return false;
        }
        out[key] = value;
    }
    return true;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

bool
Checker::expect(const std::string &key, const std::string &actual)
{
    bool seen = false;
    for (const auto &kv : observed_)
        if (kv.first == key) {
            seen = true;
            if (kv.second != actual)
                return require(false, key + " differs between passes: " +
                                          kv.second + " then " + actual);
        }
    if (!seen)
        observed_.emplace_back(key, actual);
    auto it = expected_.find(key);
    if (it == expected_.end())
        return require(false, key + " has no recorded value (got " +
                                  actual + ")");
    return require(it->second == actual, key + " is " + actual +
                                             ", recorded " + it->second);
}

bool
Checker::require(bool ok, const std::string &what)
{
    if (!ok)
        failures_.push_back(what);
    return ok;
}

} // namespace perfbench
