// Workload registry: one table mapping workload names to runners so the
// CLI (and any future driver) dispatches generically instead of hard-coding
// a subcommand per workload.
//
// A runner takes the shared RunOptions (strategy / node count / trace
// recorder), the workload-specific string parameters, and the system
// config; it validates the parameters (throwing std::invalid_argument on
// bad input, or on a parameter it does not take, so the driver can report
// a usage error instead of running with garbage), executes the workload,
// prints its report, and returns the sliced ResultBase for the driver's
// exit-code / stats-export plumbing.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cluster/config.hpp"
#include "workloads/options.hpp"

namespace gputn::workloads {

/// Workload-specific CLI parameters as validated string key/values.
/// Unlike raw atol/atof, the typed getters reject non-numeric text and
/// enforce range bounds at parse time (throwing std::invalid_argument),
/// so e.g. `--iterations banana` or `--chunks 0` fail before the
/// simulation starts. Every getter records the key it looks up, so a
/// runner can refuse the keys it never read (reject_unread): a typo or a
/// flag the workload does not take fails instead of being ignored. The
/// record makes an object single-threaded; exp::Plan copies one per point.
class WorkloadParams {
 public:
  void set(std::string key, std::string value) {
    values_[std::move(key)] = std::move(value);
  }
  bool has(const std::string& key) const {
    read_.insert(key);
    return values_.count(key) > 0;
  }

  /// Boolean flag: present (with or without a value) means true.
  bool flag(const std::string& key) const { return has(key); }

  std::string get(const std::string& key, const std::string& dflt) const;

  /// Integer parameter with inclusive bounds; throws std::invalid_argument
  /// when the value is not an integer or out of [min, max].
  long get_int(const std::string& key, long dflt, long min, long max) const;

  /// Floating-point parameter with inclusive bounds; same validation.
  double get_double(const std::string& key, double dflt, double min,
                    double max) const;

  /// Throws std::invalid_argument("unknown option --<key> for <workload>")
  /// for the first key, in key order, that no getter has read. Runners
  /// call it after reading their knobs and before building anything.
  void reject_unread(const std::string& workload) const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;  ///< keys looked up so far
};

/// Runs one workload and returns the common slice of its result.
using WorkloadRunner = std::function<ResultBase(
    const RunOptions&, const WorkloadParams&, const cluster::SystemConfig&)>;

struct WorkloadEntry {
  std::string name;          ///< CLI subcommand, e.g. "jacobi"
  std::string description;   ///< one-liner for the usage text
  std::string options_help;  ///< workload-specific flags for the usage text
  WorkloadRunner run;
  /// False for a workload whose runner never reads RunOptions::strategy
  /// (broadcast picks what runs with --drive), so that a driver varying
  /// the strategy can refuse it.
  bool takes_strategy = true;
};

/// Name -> runner table. Entries keep registration order for usage text.
class Registry {
 public:
  void add(WorkloadEntry entry);
  const WorkloadEntry* find(const std::string& name) const;
  const std::vector<WorkloadEntry>& entries() const { return entries_; }

  /// The process-wide registry the CLI uses.
  static Registry& instance();

 private:
  std::vector<WorkloadEntry> entries_;
};

/// Register microbench/jacobi/allreduce/broadcast into `reg`. Explicit
/// call (no static initializers) so tests control what is registered.
void register_builtin_workloads(Registry& reg);

}  // namespace gputn::workloads
