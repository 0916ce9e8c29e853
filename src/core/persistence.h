#ifndef DESS_CORE_PERSISTENCE_H_
#define DESS_CORE_PERSISTENCE_H_

#include <cstdint>
#include <string>

namespace dess {

/// On-disk snapshot format written by this build. The snapshot is a
/// directory of sections — frozen record store, the feature-vector sets,
/// calibrated similarity spaces, browsing hierarchies, a packed R-tree page
/// file for each space served by `rtree` — described by a MANIFEST that
/// carries the format version, the answering epoch, and a CRC-32C per
/// section. The manifest itself is self-checksummed and the whole directory
/// is staged and renamed into place, so a snapshot either opens completely
/// or not at all. The writer always writes this version; the reader opens
/// versions 1..kSnapshotFormatVersion.
///
/// Failure taxonomy (pinned, like the QueryRequest codes):
///  - DataLoss: a checksum mismatch, truncated/missing section, or
///    unparseable manifest — the snapshot cannot be trusted.
///  - FailedPrecondition: version skew or a feature-space mismatch — a
///    valid snapshot that this process cannot serve as configured (an
///    upgrade/configuration problem, not data loss).
///  - NotFound: the directory holds no snapshot at all (no MANIFEST).
///
/// Version 2 adds a feature-space table (id + dimension per registered
/// space, in registry order) to the manifest; the section files themselves
/// are byte-identical to v1 when the registry is the canonical four-space
/// one, so v1 snapshots still open via the canonical mapping.
///
/// Version 3 records the index backend id each space was served with and
/// may add an optional graph_<id>.ann section per space holding an
/// approximate backend's serialized structure (e.g. the HNSW graph
/// topology). Graph sections are pure accelerators: a v3 reader whose
/// configuration resolves a different backend — or that finds the bytes
/// unusable — rebuilds the index from the packed rows instead of failing,
/// and v1/v2 snapshots (no backend table, no graph sections) open exactly
/// as before. Version skew past kSnapshotFormatVersion stays
/// FailedPrecondition, never DataLoss.
inline constexpr uint32_t kSnapshotFormatVersion = 3;

/// File names inside a snapshot directory. Per-feature-space sections are
/// named <prefix><space id><suffix>; use SnapshotHierarchyFile /
/// SnapshotIndexFile below instead of concatenating by hand, so the layout
/// has one source of truth.
inline constexpr char kSnapshotManifestFile[] = "MANIFEST";
inline constexpr char kSnapshotRecordsFile[] = "records.bin";
inline constexpr char kSnapshotMeshesFile[] = "meshes.bin";
inline constexpr char kSnapshotSpacesFile[] = "spaces.bin";
inline constexpr char kSnapshotHierarchyPrefix[] = "hierarchy_";
inline constexpr char kSnapshotHierarchySuffix[] = ".bin";
inline constexpr char kSnapshotIndexPrefix[] = "index_";
inline constexpr char kSnapshotIndexSuffix[] = ".drt";
inline constexpr char kSnapshotGraphPrefix[] = "graph_";
inline constexpr char kSnapshotGraphSuffix[] = ".ann";

/// Browsing-hierarchy section of one feature space ("hierarchy_<id>.bin").
inline std::string SnapshotHierarchyFile(const std::string& space_id) {
  return std::string(kSnapshotHierarchyPrefix) + space_id +
         kSnapshotHierarchySuffix;
}

/// Packed index section of one feature space ("index_<id>.drt"), written
/// only for spaces served by `rtree` — the only ones a reopen reads it for.
inline std::string SnapshotIndexFile(const std::string& space_id) {
  return std::string(kSnapshotIndexPrefix) + space_id + kSnapshotIndexSuffix;
}

/// Serialized approximate-index structure of one feature space
/// ("graph_<id>.ann", v3+, optional — see kSnapshotFormatVersion).
inline std::string SnapshotGraphFile(const std::string& space_id) {
  return std::string(kSnapshotGraphPrefix) + space_id + kSnapshotGraphSuffix;
}

/// How SystemSnapshot::SaveTo writes a snapshot directory. A struct, not
/// positional bools, in the QueryRequest style: new knobs extend the
/// struct rather than the signatures.
struct SaveOptions {
  /// Persist record geometry (meshes.bin). Feature-only snapshots are much
  /// smaller and still serve every query path; they cannot seed workloads
  /// that need the meshes back (rendering, re-extraction at a different
  /// resolution).
  bool include_meshes = true;
  /// Replace an existing snapshot at the target directory. When false,
  /// saving over a directory that already holds a MANIFEST fails with
  /// AlreadyExists.
  bool overwrite = false;
};

/// How Dess3System::OpenFromSnapshot reads one back.
struct OpenOptions {
  /// Verify every section's CRC-32C against the manifest before trusting
  /// it (one streaming read per file). Disable only for trusted local
  /// restarts where cold-start latency matters more than bitrot detection.
  bool verify_checksums = true;
  /// For spaces served by the `rtree` backend: read the index files
  /// eagerly into in-memory R-trees instead of serving them lazily from
  /// the packed page files through a buffer pool. Eager costs more at
  /// open, then queries run lock-free; lazy opens in O(1) and pages index
  /// nodes in on demand. Spaces on any other backend are built (or
  /// restored from a graph section) at open either way.
  bool read_all = false;
  /// Buffer-pool frames per lazily-opened index (read_all == false).
  int index_buffer_pages = 64;
};

}  // namespace dess

#endif  // DESS_CORE_PERSISTENCE_H_
