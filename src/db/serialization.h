#ifndef DESS_DB_SERIALIZATION_H_
#define DESS_DB_SERIALIZATION_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/result.h"

namespace dess {

/// Little-endian binary writer over a file stream. Every snapshot section
/// is written through here, so the on-disk encoding is defined in one place.
/// A CRC-32C of everything written so far is maintained as a side effect,
/// so section writers can emit self- or manifest-checksummed files without
/// re-reading them.
class BinaryWriter {
 public:
  explicit BinaryWriter(const std::string& path);

  bool ok() const { return static_cast<bool>(out_); }

  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI32(int32_t v);
  void WriteF64(double v);
  void WriteString(const std::string& s);
  void WriteF64Vector(const std::vector<double>& v);
  void WriteI32Vector(const std::vector<int>& v);

  /// CRC-32C of every byte written so far.
  uint32_t crc32c() const { return crc_; }

  /// Flushes and reports any accumulated stream error.
  Status Finish();

 private:
  void Append(const void* data, size_t n);

  std::ofstream out_;
  std::string path_;
  uint32_t crc_ = 0;
};

/// Binary reader mirroring BinaryWriter. Read methods return false once the
/// stream has failed; callers check Finish() or the individual results.
class BinaryReader {
 public:
  explicit BinaryReader(const std::string& path);

  bool ok() const { return static_cast<bool>(in_); }

  bool ReadU32(uint32_t* v);
  bool ReadU64(uint64_t* v);
  bool ReadI32(int32_t* v);
  bool ReadF64(double* v);
  bool ReadString(std::string* s);
  bool ReadF64Vector(std::vector<double>* v);
  bool ReadI32Vector(std::vector<int>* v);

  Status Finish() const;

 private:
  /// Bytes between the current read position and end of file; length
  /// prefixes are validated against this so corrupt files cannot trigger
  /// huge allocations.
  uint64_t RemainingBytes();

  std::ifstream in_;
  std::string path_;
  uint64_t file_size_ = 0;
};

/// Little-endian binary writer over an in-memory buffer, mirroring
/// BinaryWriter's encoding byte for byte. The write-ahead log frames each
/// entry in memory (so its CRC can be computed and the entry written with a
/// single appending write) before handing the bytes to the file.
class ByteWriter {
 public:
  void WriteU8(uint8_t v) { Append(&v, sizeof(v)); }
  void WriteU32(uint32_t v) { Append(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { Append(&v, sizeof(v)); }
  void WriteI32(int32_t v) { Append(&v, sizeof(v)); }
  void WriteF64(double v) { Append(&v, sizeof(v)); }
  void WriteString(const std::string& s) {
    WriteU64(s.size());
    Append(s.data(), s.size());
  }
  void WriteF64Vector(const std::vector<double>& v) {
    WriteU64(v.size());
    Append(v.data(), v.size() * sizeof(double));
  }
  /// Raw bytes, no length prefix (for splicing pre-encoded payloads).
  void WriteBytes(const void* data, size_t n) { Append(data, n); }

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t>&& TakeBytes() { return std::move(bytes_); }

 private:
  void Append(const void* data, size_t n);

  std::vector<uint8_t> bytes_;
};

/// Bounds-checked reader over a byte span, mirroring ByteWriter. Read
/// methods return false (and stay failed) on truncation or oversized
/// length prefixes, so corrupt log entries cannot trigger huge
/// allocations — same contract as BinaryReader.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool ReadU8(uint8_t* v) { return Extract(v, sizeof(*v)); }
  bool ReadU32(uint32_t* v) { return Extract(v, sizeof(*v)); }
  bool ReadU64(uint64_t* v) { return Extract(v, sizeof(*v)); }
  bool ReadI32(int32_t* v) { return Extract(v, sizeof(*v)); }
  bool ReadF64(double* v) { return Extract(v, sizeof(*v)); }
  bool ReadString(std::string* s);
  bool ReadF64Vector(std::vector<double>* v);

  bool ok() const { return ok_; }
  size_t Remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  bool Extract(void* out, size_t n);

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// Streams a file once and returns {size in bytes, CRC-32C of its
/// contents}; IOError if the file cannot be read. The persistence layer
/// uses this both to fill manifest entries at save time and to verify them
/// at open time.
Result<std::pair<uint64_t, uint32_t>> FileSizeAndCrc32c(
    const std::string& path);

}  // namespace dess

#endif  // DESS_DB_SERIALIZATION_H_
