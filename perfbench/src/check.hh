/**
 * @file
 * The output check: every workload compares what the program produced
 * against recorded values (perfbench/expected.txt) and golden files,
 * and a mismatch counts as a failed operation.
 *
 * expected.txt holds one "key value" pair per line ('#' starts a
 * comment): simulated-cycle totals and FNV-1a digests of rendered
 * outputs. Cycle totals are exact work checks -- a change that only
 * speeds the simulator up must leave them identical.
 */

#ifndef PERFBENCH_CHECK_HH
#define PERFBENCH_CHECK_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** 16 hex chars of the FNV-1a 64-bit hash of @p bytes. */
std::string digest(const std::string &bytes);

/** Parse "key value" lines; false (with @p error) on a malformed line. */
bool parseExpected(const std::string &text,
                   std::map<std::string, std::string> &out,
                   std::string &error);

/** Whole file contents; false when it cannot be read. */
bool readFile(const std::string &path, std::string &out);

class Checker
{
  public:
    explicit Checker(std::map<std::string, std::string> expected)
        : expected_(std::move(expected))
    {
    }

    /** Compare @p actual with the recorded value under @p key. */
    bool expect(const std::string &key, const std::string &actual);

    /** Record a failed check unless @p ok. */
    bool require(bool ok, const std::string &what);

    /** Failed checks so far, one line each. */
    const std::vector<std::string> &failures() const
    {
        return failures_;
    }

    /**
     * Values passed to expect(), in first-seen order. main() prints
     * them on stderr as "observed: key value" lines, which
     * record_expected.py collects into a regenerated expected.txt.
     */
    const std::vector<std::pair<std::string, std::string>> &
    observed() const
    {
        return observed_;
    }

  private:
    std::map<std::string, std::string> expected_;
    std::vector<std::string> failures_;
    std::vector<std::pair<std::string, std::string>> observed_;
};

} // namespace perfbench

#endif // PERFBENCH_CHECK_HH
