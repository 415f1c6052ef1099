#include "fs.hpp"

#include <chrono>

namespace perfbench {

using eyeball::util::Status;
using eyeball::util::WritableFile;

namespace {

class MemoryWritableFile final : public WritableFile {
 public:
  explicit MemoryWritableFile(std::shared_ptr<std::vector<std::byte>> buffer)
      : buffer_(std::move(buffer)) {}

  Status append(std::span<const std::byte> data) override {
    buffer_->insert(buffer_->end(), data.begin(), data.end());
    return Status{};
  }
  Status sync() override { return Status{}; }
  Status close() override { return Status{}; }

 private:
  std::shared_ptr<std::vector<std::byte>> buffer_;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

class CountingWritableFile final : public WritableFile {
 public:
  CountingWritableFile(std::unique_ptr<WritableFile> inner, FileCounters& counters)
      : inner_(std::move(inner)), counters_(counters) {}

  Status append(std::span<const std::byte> data) override {
    const auto start = std::chrono::steady_clock::now();
    Status status = inner_->append(data);
    counters_.append_s += seconds_since(start);
    if (status.ok()) counters_.bytes += data.size();
    return status;
  }
  Status sync() override {
    const auto start = std::chrono::steady_clock::now();
    Status status = inner_->sync();
    counters_.sync_s += seconds_since(start);
    ++counters_.syncs;
    return status;
  }
  Status close() override { return inner_->close(); }

 private:
  std::unique_ptr<WritableFile> inner_;
  FileCounters& counters_;
};

}  // namespace

Status MemoryFileSystem::open_for_write(const std::string& path,
                                        std::unique_ptr<WritableFile>& out) {
  auto buffer = std::make_shared<std::vector<std::byte>>();
  files_[path] = buffer;
  out = std::make_unique<MemoryWritableFile>(std::move(buffer));
  return Status{};
}

Status MemoryFileSystem::read_file(const std::string& path, std::vector<std::byte>& out) {
  const auto it = files_.find(path);
  if (it == files_.end()) return Status::not_found(path);
  out = *it->second;
  return Status{};
}

Status MemoryFileSystem::rename_file(const std::string& from, const std::string& to) {
  const auto it = files_.find(from);
  if (it == files_.end()) return Status::not_found(from);
  auto buffer = std::move(it->second);
  files_.erase(it);
  files_[to] = std::move(buffer);
  return Status{};
}

Status MemoryFileSystem::remove_file(const std::string& path) {
  return files_.erase(path) == 1 ? Status{} : Status::not_found(path);
}

Status MemoryFileSystem::sync_dir(const std::string&) { return Status{}; }

Status MemoryFileSystem::create_directories(const std::string&) { return Status{}; }

Status MemoryFileSystem::list_dir(const std::string& path, std::vector<std::string>& names) {
  names.clear();
  const std::string prefix = path + "/";
  for (auto it = files_.lower_bound(prefix);
       it != files_.end() && it->first.compare(0, prefix.size(), prefix) == 0; ++it) {
    const std::string name = it->first.substr(prefix.size());
    if (name.find('/') == std::string::npos) names.push_back(name);
  }
  return Status{};
}

Status CountingFileSystem::open_for_write(const std::string& path,
                                          std::unique_ptr<WritableFile>& out) {
  std::unique_ptr<WritableFile> inner;
  Status status = base_.open_for_write(path, inner);
  if (!status.ok()) return status;
  out = std::make_unique<CountingWritableFile>(std::move(inner), counters_);
  return Status{};
}

Status CountingFileSystem::sync_dir(const std::string& path) {
  const auto start = std::chrono::steady_clock::now();
  Status status = base_.sync_dir(path);
  counters_.sync_s += seconds_since(start);
  ++counters_.syncs;
  return status;
}

}  // namespace perfbench
