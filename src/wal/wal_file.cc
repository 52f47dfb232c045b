#include "wal/wal_file.h"

#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>

#include "util/logging.h"

namespace tdr::wal {

namespace {

/// Writer over a MemWalBackend segment. The segment vector is owned by
/// the backend, so the bytes survive this handle (crash + recovery
/// re-read them).
class MemWalFile : public WalFile {
 public:
  explicit MemWalFile(std::vector<std::uint8_t>* bytes, std::uint64_t* synced)
      : bytes_(bytes), synced_(synced) {}

  void Append(const std::uint8_t* data, std::size_t size) override {
    bytes_->insert(bytes_->end(), data, data + size);
  }

  void Sync() override { *synced_ = bytes_->size(); }

  std::uint64_t size() const override { return bytes_->size(); }
  std::uint64_t synced_size() const override { return *synced_; }

 private:
  std::vector<std::uint8_t>* bytes_;
  std::uint64_t* synced_;
};

class StdioWalFile : public WalFile {
 public:
  StdioWalFile(std::FILE* f, bool fsync) : f_(f), fsync_(fsync) {}

  ~StdioWalFile() override {
    if (f_ != nullptr) std::fclose(f_);
  }

  void Append(const std::uint8_t* data, std::size_t size) override {
    if (f_ == nullptr) return;
    const std::size_t written = std::fwrite(data, 1, size, f_);
    if (written != size) {
      // A silently-swallowed short write (disk full, I/O error) would
      // leave size_ claiming bytes the file never got, so a later Sync
      // marks them durable and the log corrupts mid-stream instead of
      // tearing at the tail. Fail loudly, in release builds too.
      std::fprintf(stderr, "wal: short write (%zu of %zu bytes)\n", written,
                   size);
      std::abort();
    }
    // Write through immediately: appended-but-unsynced bytes must live
    // in the FILE (the crash model truncates the file to a torn-tail
    // cut point), not in a stdio buffer an abandoned handle would lose
    // or a destructor would resurrect.
    std::fflush(f_);
    size_ += size;
  }

  void Sync() override {
    if (f_ == nullptr || synced_ == size_) return;  // idempotent
    // By default the simulated flush latency models the sync cost and
    // tests on tmpfs would only pay noise; with the fsync knob on, the
    // durability line is backed by a real fdatasync so the bench table
    // shows the honest price.
    if (fsync_) {
      if (::fdatasync(::fileno(f_)) != 0) {
        std::fprintf(stderr, "wal: fdatasync failed\n");
        std::abort();
      }
    }
    synced_ = size_;
  }

  std::uint64_t size() const override { return size_; }
  std::uint64_t synced_size() const override { return synced_; }

 private:
  std::FILE* f_;
  bool fsync_;
  std::uint64_t size_ = 0;
  std::uint64_t synced_ = 0;
};

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

MemWalBackend::MemWalBackend(std::uint32_t num_nodes,
                             std::size_t reserve_bytes)
    : segments_(num_nodes), reserve_bytes_(reserve_bytes) {}

std::unique_ptr<WalFile> MemWalBackend::Create(NodeId node,
                                               std::uint32_t segment) {
  assert(node < segments_.size());
  auto& per_node = segments_[node];
  while (per_node.size() <= segment) {
    per_node.push_back(std::make_unique<Segment>());
  }
  Segment* seg = per_node[segment].get();
  seg->bytes.clear();
  seg->bytes.reserve(reserve_bytes_);
  seg->synced = 0;
  return std::make_unique<MemWalFile>(&seg->bytes, &seg->synced);
}

std::uint32_t MemWalBackend::SegmentCount(NodeId node) const {
  assert(node < segments_.size());
  return static_cast<std::uint32_t>(segments_[node].size());
}

bool MemWalBackend::ReadSegment(NodeId node, std::uint32_t segment,
                                std::vector<std::uint8_t>* out) const {
  assert(node < segments_.size());
  const auto& per_node = segments_[node];
  if (segment >= per_node.size()) return false;
  *out = per_node[segment]->bytes;
  return true;
}

void MemWalBackend::TruncateSegment(NodeId node, std::uint32_t segment,
                                    std::uint64_t keep_bytes) {
  assert(node < segments_.size());
  auto& per_node = segments_[node];
  if (segment >= per_node.size()) return;
  Segment* seg = per_node[segment].get();
  if (keep_bytes < seg->bytes.size()) {
    seg->bytes.resize(static_cast<std::size_t>(keep_bytes));
  }
  seg->synced = std::min(seg->synced, keep_bytes);
}

void MemWalBackend::Clear(NodeId node) {
  assert(node < segments_.size());
  segments_[node].clear();
}

std::vector<std::uint8_t>* MemWalBackend::SegmentBytes(NodeId node,
                                                       std::uint32_t segment) {
  assert(node < segments_.size());
  auto& per_node = segments_[node];
  if (segment >= per_node.size()) return nullptr;
  return &per_node[segment]->bytes;
}

FileWalBackend::FileWalBackend(std::string dir, std::uint32_t num_nodes,
                               bool fsync)
    : dir_(std::move(dir)), created_(num_nodes, 0), fsync_(fsync) {
  ::mkdir(dir_.c_str(), 0755);  // EEXIST is fine
  // Probe pre-existing segments (a wal_dir reused across clusters in
  // one test) so SegmentCount reflects what recovery can read.
  for (NodeId node = 0; node < num_nodes; ++node) {
    while (FileExists(SegmentPath(node, created_[node]))) ++created_[node];
  }
}

std::string FileWalBackend::SegmentPath(NodeId node,
                                        std::uint32_t segment) const {
  return StrPrintf("%s/wal-n%u-s%u.log", dir_.c_str(), node, segment);
}

std::unique_ptr<WalFile> FileWalBackend::Create(NodeId node,
                                                std::uint32_t segment) {
  assert(node < created_.size());
  std::FILE* f = std::fopen(SegmentPath(node, segment).c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "wal: cannot create %s\n",
                 SegmentPath(node, segment).c_str());
    std::abort();
  }
  if (segment >= created_[node]) created_[node] = segment + 1;
  return std::make_unique<StdioWalFile>(f, fsync_);
}

std::uint32_t FileWalBackend::SegmentCount(NodeId node) const {
  assert(node < created_.size());
  return created_[node];
}

bool FileWalBackend::ReadSegment(NodeId node, std::uint32_t segment,
                                 std::vector<std::uint8_t>* out) const {
  std::FILE* f = std::fopen(SegmentPath(node, segment).c_str(), "rb");
  if (f == nullptr) return false;
  out->clear();
  std::uint8_t buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->insert(out->end(), buf, buf + n);
  }
  std::fclose(f);
  return true;
}

void FileWalBackend::TruncateSegment(NodeId node, std::uint32_t segment,
                                     std::uint64_t keep_bytes) {
  const std::string path = SegmentPath(node, segment);
  if (!FileExists(path)) return;
  // POSIX truncate EXTENDS a shorter file with zeros; match the
  // in-memory backend's contract (truncate-only, no-op when shorter).
  struct ::stat st;
  if (::stat(path.c_str(), &st) != 0) return;
  if (static_cast<std::uint64_t>(st.st_size) <= keep_bytes) return;
  int rc = ::truncate(path.c_str(), static_cast<off_t>(keep_bytes));
  assert(rc == 0);
  (void)rc;
}

void FileWalBackend::Clear(NodeId node) {
  assert(node < created_.size());
  for (std::uint32_t seg = 0; seg < created_[node]; ++seg) {
    ::unlink(SegmentPath(node, seg).c_str());
  }
  created_[node] = 0;
}

}  // namespace tdr::wal
