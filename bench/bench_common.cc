#include "bench/bench_common.h"

#include <chrono>
#include <cstdio>
#include <filesystem>

#include "src/modelgen/dataset.h"

namespace dess {
namespace bench {
namespace {

SystemOptions StandardSystemOptions() {
  StandardConfig cfg;
  SystemOptions opt;
  opt.extraction.voxelization.resolution = cfg.voxel_resolution;
  // Faithful to the paper's Eq. 4.3: raw feature values with unit weights
  // (no per-dimension standardization). The standardized variant is
  // exercised separately as an ablation by the experiment binaries.
  opt.search.standardize = false;
  return opt;
}

constexpr size_t kStandardShapes = 113;

std::unique_ptr<Dess3System> BuildFresh(const std::string& home_dir) {
  StandardConfig cfg;
  DatasetOptions ds_opt;
  ds_opt.seed = cfg.dataset_seed;
  ds_opt.mesh_resolution = cfg.mesh_resolution;
  std::fprintf(stderr,
               "[bench] building 113-shape dataset + extracting features "
               "(one-time; result committed to %s)...\n",
               home_dir.c_str());
  const auto t0 = std::chrono::steady_clock::now();
  auto dataset = BuildStandardDataset(ds_opt);
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset build failed: %s\n",
                 dataset.status().ToString().c_str());
    std::abort();
  }
  std::error_code ec;
  std::filesystem::remove_all(home_dir, ec);
  auto opened = Dess3System::Open(home_dir, {}, StandardSystemOptions());
  if (!opened.ok()) {
    std::fprintf(stderr, "home open failed: %s\n",
                 opened.status().ToString().c_str());
    std::abort();
  }
  std::unique_ptr<Dess3System> system = std::move(opened).value();
  // The full commit checkpoints every record, so the log need not hold
  // them in between.
  Status st = system->IngestDataset(
      *dataset, IngestOptions{.num_threads = 0,
                              .durability = WriteAheadLog::Durability::kOff});
  if (st.ok()) st = system->Commit().status();
  if (!st.ok()) {
    std::fprintf(stderr, "system build failed: %s\n", st.ToString().c_str());
    std::abort();
  }
  const auto dt = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  std::fprintf(stderr, "[bench] built %zu shapes in %.1f s\n",
               system->db().NumShapes(), dt / 1000.0);
  return system;
}

}  // namespace

const Dess3System& StandardSystem(const std::string& home_dir) {
  static std::unique_ptr<Dess3System>* holder =
      new std::unique_ptr<Dess3System>([&] {
        if (std::filesystem::exists(home_dir)) {
          // Every index read into memory, so the series time in-memory
          // R-trees, not a buffer pool over the packed files.
          auto opened = Dess3System::Open(home_dir, {.read_all = true},
                                          StandardSystemOptions());
          if (opened.ok() && (*opened)->IsCommitted() &&
              (*opened)->db().NumShapes() == kStandardShapes) {
            std::fprintf(stderr, "[bench] reopened home %s\n",
                         home_dir.c_str());
            return std::move(*opened);
          }
          std::fprintf(stderr, "[bench] home unusable (%s); rebuilding\n",
                       opened.ok() ? "not a committed 113-shape home"
                                   : opened.status().ToString().c_str());
        }
        return BuildFresh(home_dir);
      }());
  return **holder;
}

const SystemSnapshot& StandardSnapshot(const std::string& home_dir) {
  static const std::shared_ptr<const SystemSnapshot>* holder = [&] {
    auto snapshot = StandardSystem(home_dir).CurrentSnapshot();
    if (!snapshot.ok()) {
      std::fprintf(stderr, "snapshot unavailable: %s\n",
                   snapshot.status().ToString().c_str());
      std::abort();
    }
    return new std::shared_ptr<const SystemSnapshot>(std::move(*snapshot));
  }();
  return **holder;
}

void PrintHeader(const std::string& title) {
  std::printf("\n");
  for (int i = 0; i < 78; ++i) std::printf("=");
  std::printf("\n%s\n", title.c_str());
  for (int i = 0; i < 78; ++i) std::printf("=");
  std::printf("\n");
}

}  // namespace bench
}  // namespace dess
