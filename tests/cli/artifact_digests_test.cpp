// Byte-identity of the CLI's outputs: each config below runs the built
// `gputn` in a fresh directory with fixed relative artifact names, and the
// FNV-1a-64 digest of stdout and of every artifact it writes must equal
// the one committed in artifact_digests.txt. A workload run writes
// --stats-json, --flight, --trace and --timeseries; `whatif` writes --json.
// Each bench below is pinned the same way by its stdout alone. Every run
// must exit 0.
// A change that moves a digest on purpose states the old digest, the new
// one and the reason in CHANGES.md, and replaces the file's lines with the
// ones the failure prints.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Config {
  const char* name;
  const char* args;
};

void PrintTo(const Config& c, std::ostream* os) { *os << c.args; }

const Config kConfigs[] = {
    {"allreduce_cpu", "allreduce --strategy CPU --nodes 8 --mb 0.5"},
    {"allreduce_hdn", "allreduce --strategy HDN --nodes 8 --mb 0.5"},
    {"allreduce_gds", "allreduce --strategy GDS --nodes 8 --mb 0.5"},
    {"allreduce_gputn", "allreduce --strategy GPU-TN --nodes 16 --mb 0.25"},
    {"allreduce_gputn_offload",
     "allreduce --strategy GPU-TN --nodes 8 --mb 0.5 --offload"},
    {"allreduce_cpu_fattree",
     "allreduce --strategy CPU --nodes 16 --mb 0.25 --topology fat-tree:k=4 "
     "--credits 2"},
    {"allreduce_cpu_loss",
     "allreduce --strategy CPU --nodes 8 --mb 0.5 --loss 0.01 --seed 7"},
    {"allreduce_hdn_loss",
     "allreduce --strategy HDN --nodes 8 --mb 1 --loss 0.01 --seed 7"},
    {"allreduce_cpu_torus",
     "allreduce --strategy CPU --nodes 64 --mb 0.25 --topology torus:4x4x4"},
    {"allreduce_hdn_dragonfly",
     "allreduce --strategy HDN --nodes 64 --mb 0.25 --topology "
     "dragonfly:a=4,p=2,h=2"},
    {"jacobi_cpu", "jacobi --strategy CPU --n 256 --iterations 8"},
    {"jacobi_gds", "jacobi --strategy GDS --n 256 --iterations 8"},
    {"jacobi_gputn", "jacobi --strategy GPU-TN --n 256 --iterations 8"},
    {"jacobi_hdn", "jacobi --strategy HDN --n 128 --iterations 4"},
    {"jacobi_hdn_overlap",
     "jacobi --strategy HDN --n 128 --iterations 4 --overlap"},
    {"jacobi_gputn_overlap",
     "jacobi --strategy GPU-TN --n 128 --iterations 4 --overlap"},
    {"jacobi_gputn_loss",
     "jacobi --strategy GPU-TN --n 128 --iterations 4 --loss 0.01 --seed 7"},
    {"broadcast_hdn", "broadcast --drive HDN --nodes 8 --mb 0.25"},
    {"broadcast_gputn", "broadcast --drive GPU-TN --nodes 8 --mb 0.25"},
    {"broadcast_nic_chain", "broadcast --drive NIC-chain --nodes 8 --mb 0.25"},
    {"serve_cpu", "serve --strategy CPU --clients 4 --servers 4 --tenants 4"},
    {"serve_gputn",
     "serve --strategy GPU-TN --clients 4 --servers 4 --tenants 4"},
    {"microbench_cpu", "microbench --strategy CPU"},
    {"microbench_hdn", "microbench --strategy HDN"},
    {"microbench_gds", "microbench --strategy GDS"},
    {"microbench_gputn", "microbench --strategy GPU-TN"},
    {"microbench_ghn", "microbench --strategy GHN"},
    {"microbench_gnn", "microbench --strategy GNN"},
    {"whatif_jacobi", "whatif jacobi --n 32 --iterations 4 --jobs 2"},
};

/// Benches run with no arguments. Outside unit tests these are the only
/// end-to-end runs of the linked-list lookup, dynamic puts, the
/// relaxed-sync race and the launch models.
struct Bench {
  const char* name;
  const char* path;
};

void PrintTo(const Bench& b, std::ostream* os) { *os << b.name; }

const Bench kBenches[] = {
    {"fig01_kernel_launch", GPUTN_BENCH_fig01_kernel_launch},
    {"fig08_latency_decomposition", GPUTN_BENCH_fig08_latency_decomposition},
    {"abl_trigger_lookup", GPUTN_BENCH_abl_trigger_lookup},
    {"abl_relaxed_sync", GPUTN_BENCH_abl_relaxed_sync},
    {"abl_granularity", GPUTN_BENCH_abl_granularity},
    {"abl_nic_offload", GPUTN_BENCH_abl_nic_offload},
    {"abl_dynamic", GPUTN_BENCH_abl_dynamic},
    {"abl_launch_sweep", GPUTN_BENCH_abl_launch_sweep},
};

/// (artifact, file): what a config's digests cover.
using Artifacts = std::vector<std::pair<std::string, std::string>>;

const Artifacts kRunArtifacts = {{"stdout", "stdout.txt"},
                                 {"stats", "stats.json"},
                                 {"flight", "flight.json"},
                                 {"trace", "trace.json"},
                                 {"timeseries", "timeseries.json"}};
const Artifacts kWhatifArtifacts = {{"stdout", "stdout.txt"},
                                    {"json", "whatif.json"}};
const Artifacts kBenchArtifacts = {{"stdout", "stdout.txt"}};

bool is_whatif(const Config& c) {
  return std::string(c.args).rfind("whatif", 0) == 0;
}

/// FNV-1a-64, the digest golden_test.cpp pins flight dumps with.
std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// The committed digests, keyed "<config> <artifact>". Lines starting with
/// '#' are comments.
const std::map<std::string, std::string>& committed() {
  static const std::map<std::string, std::string> digests = [] {
    std::map<std::string, std::string> out;
    std::ifstream in(GPUTN_DIGESTS);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string config, artifact, digest;
      fields >> config >> artifact >> digest;
      out[config + " " + artifact] = digest;
    }
    return out;
  }();
  return digests;
}

/// A fresh directory under the system's temp path, removed with its
/// contents at scope exit.
struct TempDir {
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "gputn-digest-XXXXXX").string();
    if (mkdtemp(tmpl.data()) != nullptr) path = tmpl;
  }
  ~TempDir() {
    if (!path.empty()) fs::remove_all(path);
  }
  fs::path path;
};

/// Runs `command` in a fresh directory with its stdout in stdout.txt,
/// expects exit 0, and compares the digest of each of `artifacts` with the
/// committed line "<name> <artifact>". `label` names the run in failures.
void expect_committed_digests(const std::string& name,
                              const std::string& label,
                              const std::string& command,
                              const Artifacts& artifacts) {
  TempDir tmp;
  ASSERT_FALSE(tmp.path.empty()) << "cannot make a temp directory";
  const fs::path& dir = tmp.path;

  std::string cmd = "cd '" + dir.string() + "' && " + command + " > stdout.txt";
  int status = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(status)) << cmd;
  EXPECT_EQ(WEXITSTATUS(status), 0) << cmd;

  std::string moved, lines;
  for (const auto& [artifact, file] : artifacts) {
    std::ifstream in(dir / file, std::ios::binary);
    ASSERT_TRUE(in) << name << ": " << file << " was not written";
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::string now = hex(fnv1a64(bytes));
    std::string key = name + " " + artifact;
    lines += key + " " + now + "\n";
    auto it = committed().find(key);
    std::string old = it == committed().end() ? "(none)" : it->second;
    if (old != now) {
      moved += "  " + key + ": committed " + old + ", now " + now + "\n";
    }
  }
  EXPECT_TRUE(moved.empty()) << "`" << label << "` moved these digests:\n"
                             << moved << "Its lines are now:\n"
                             << lines;
}

class ArtifactDigest : public ::testing::TestWithParam<Config> {};

TEST_P(ArtifactDigest, MatchesCommittedDigests) {
  const Config& c = GetParam();
  const bool whatif = is_whatif(c);
  std::string cmd = "'" GPUTN_CLI "' " + std::string(c.args);
  cmd += whatif ? " --json whatif.json"
                : " --stats-json stats.json --flight flight.json"
                  " --trace trace.json --timeseries timeseries.json";
  expect_committed_digests(c.name, "gputn " + std::string(c.args), cmd,
                           whatif ? kWhatifArtifacts : kRunArtifacts);
}

INSTANTIATE_TEST_SUITE_P(Cli, ArtifactDigest, ::testing::ValuesIn(kConfigs),
                         [](const ::testing::TestParamInfo<Config>& info) {
                           return std::string(info.param.name);
                         });

class BenchDigest : public ::testing::TestWithParam<Bench> {};

TEST_P(BenchDigest, MatchesCommittedDigests) {
  const Bench& b = GetParam();
  std::string cmd = std::string("'") + b.path + "'";
  expect_committed_digests(b.name, b.name, cmd, kBenchArtifacts);
}

INSTANTIATE_TEST_SUITE_P(Bench, BenchDigest, ::testing::ValuesIn(kBenches),
                         [](const ::testing::TestParamInfo<Bench>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
