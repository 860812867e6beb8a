#include "runtime/jsonl.h"

#include <atomic>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "runtime/fault.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace fl::runtime {

namespace {
// write:<seq> fault specs select on this process-wide counter; serial runs
// make it deterministic.
std::atomic<std::uint64_t> g_sync_seq{0};
}  // namespace

namespace {

void append_escaped(std::string& buf, std::string_view s) {
  buf.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': buf += "\\\""; break;
      case '\\': buf += "\\\\"; break;
      case '\n': buf += "\\n"; break;
      case '\r': buf += "\\r"; break;
      case '\t': buf += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x", c);
          buf += hex;
        } else {
          buf.push_back(c);
        }
    }
  }
  buf.push_back('"');
}

// Position of the raw value of `"key":` in `line`, or npos. Only matches a
// full key token, so "cell" does not match "cells".
std::size_t value_pos(std::string_view line, std::string_view key) {
  std::string token = "\"";
  token += key;
  token += "\":";
  const std::size_t at = line.find(token);
  return at == std::string_view::npos ? at : at + token.size();
}

template <typename Int>
std::optional<Int> int_field(std::string_view line, std::string_view key) {
  const std::size_t at = value_pos(line, key);
  if (at == std::string_view::npos) return std::nullopt;
  Int value = 0;
  const auto [end, ec] =
      std::from_chars(line.data() + at, line.data() + line.size(), value);
  if (ec != std::errc{}) return std::nullopt;
  (void)end;
  return value;
}

}  // namespace

JsonObject& JsonObject::raw(std::string_view key, std::string_view value) {
  if (!first_) buf_.push_back(',');
  first_ = false;
  append_escaped(buf_, key);
  buf_.push_back(':');
  buf_ += value;
  return *this;
}

JsonObject& JsonObject::field(std::string_view key, std::string_view value) {
  std::string escaped;
  append_escaped(escaped, value);
  return raw(key, escaped);
}

JsonObject& JsonObject::field(std::string_view key, bool value) {
  return raw(key, value ? "true" : "false");
}

JsonObject& JsonObject::field(std::string_view key, double value) {
  // Shortest round-trippable decimal; identical doubles format identically,
  // which is all the determinism guarantee needs.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return raw(key, buf);
}

JsonObject& JsonObject::field(std::string_view key,
                              std::span<const int> values) {
  std::string buf = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) buf.push_back(',');
    buf += std::to_string(values[i]);
  }
  buf.push_back(']');
  return raw(key, buf);
}

JsonObject& JsonObject::merge(const JsonObject& other) {
  if (other.first_) return *this;  // nothing to merge
  if (!first_) buf_.push_back(',');
  buf_.append(other.buf_, 1, std::string::npos);  // skip the opening '{'
  first_ = false;
  return *this;
}

std::string JsonObject::str() {
  buf_.push_back('}');
  return std::move(buf_);
}

void JsonlSink::drain_ready_locked() {
  bool emitted = false;
  while (true) {
    if (const auto it = pending_.find(next_); it != pending_.end()) {
      out_ << it->second << '\n';
      pending_.erase(it);
      ++next_;
      emitted = true;
    } else if (const auto sk = skipped_.find(next_); sk != skipped_.end()) {
      skipped_.erase(sk);
      ++next_;
    } else {
      break;
    }
  }
  if (emitted && sync_) sync_();
}

void JsonlSink::write(std::size_t index, std::string line) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_.emplace(index, std::move(line));
  drain_ready_locked();
}

void JsonlSink::skip(std::size_t index) {
  std::lock_guard<std::mutex> lock(mu_);
  if (index < next_) return;
  skipped_.insert(index);
  drain_ready_locked();
}

void JsonlSink::write_unordered(const std::string& line) {
  std::lock_guard<std::mutex> lock(mu_);
  out_ << line << '\n';
  if (sync_) sync_();
}

void JsonlSink::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [index, line] : pending_) {
    out_ << line << '\n';
    next_ = index + 1;
  }
  pending_.clear();
  skipped_.clear();
  out_.flush();
  if (sync_) sync_();
}

JsonlWriter::JsonlWriter(const std::string& path, bool append,
                         const FaultInjector* faults)
    : path_(path), faults_(faults) {
  out_.open(path, append ? (std::ios::out | std::ios::app) : std::ios::out);
  if (!out_) {
    throw std::runtime_error("cannot open JSONL output file: " + path);
  }
#if defined(__unix__) || defined(__APPLE__)
  // Second descriptor on the same inode, used only for fsync: flushing the
  // ofstream moves bytes to the kernel, fsync makes them durable.
  fd_ = ::open(path.c_str(), O_WRONLY);
#endif
}

JsonlWriter::~JsonlWriter() {
  try {
    sync();
  } catch (const std::exception& e) {
    // Destructors must not throw; by this point every committed record was
    // already synced (or its producer already failed), so losing the final
    // no-op sync only costs this diagnostic.
    std::fprintf(stderr, "JsonlWriter: final sync of %s failed: %s\n",
                 path_.c_str(), e.what());
  }
#if defined(__unix__) || defined(__APPLE__)
  if (fd_ >= 0) ::close(fd_);
#endif
}

void JsonlWriter::sync() {
  const std::uint64_t seq =
      g_sync_seq.fetch_add(1, std::memory_order_relaxed);
  // Injected ENOSPC fires before the real flush, and poisons the stream the
  // way a real one would (badbit persists): every later record is a no-op
  // instead of silently going durable at close. The one record already
  // handed to the stream buffer may still land when the filebuf closes —
  // harmless, since a fully written record is exactly what resume scans for.
  try {
    (faults_ != nullptr ? *faults_ : FaultInjector::global()).inject_write(seq);
  } catch (...) {
    out_.setstate(std::ios::badbit);
    throw;
  }
  out_.flush();
  if (!out_) {
    throw WriteFault("JSONL flush of " + path_ +
                     " failed (disk full or I/O error?)");
  }
#if defined(__unix__) || defined(__APPLE__)
  if (fd_ >= 0 && ::fsync(fd_) < 0) {
    throw WriteFault("fsync of " + path_ + " failed: " +
                     std::strerror(errno));
  }
#endif
}

std::uint64_t JsonlWriter::sync_sequence() {
  return g_sync_seq.load(std::memory_order_relaxed);
}

std::optional<long long> json_int_field(std::string_view line,
                                        std::string_view key) {
  return int_field<long long>(line, key);
}

std::optional<std::string> json_string_field(std::string_view line,
                                             std::string_view key) {
  std::size_t at = value_pos(line, key);
  if (at == std::string_view::npos || at >= line.size() || line[at] != '"') {
    return std::nullopt;
  }
  ++at;
  std::string out;
  while (at < line.size() && line[at] != '"') {
    if (line[at] == '\\' && at + 1 < line.size()) {
      const char esc = line[at + 1];
      switch (esc) {
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        default: out.push_back(esc);
      }
      at += 2;
    } else {
      out.push_back(line[at++]);
    }
  }
  if (at >= line.size()) return std::nullopt;  // unterminated string
  return out;
}

std::optional<double> json_double_field(std::string_view line,
                                        std::string_view key) {
  const std::size_t at = value_pos(line, key);
  if (at == std::string_view::npos) return std::nullopt;
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(line.data() + at, line.data() + line.size(), value);
  if (ec != std::errc{}) return std::nullopt;
  (void)end;
  return value;
}

std::optional<std::vector<int>> json_int_array_field(std::string_view line,
                                                     std::string_view key) {
  std::size_t at = value_pos(line, key);
  if (at == std::string_view::npos || at >= line.size() || line[at] != '[') {
    return std::nullopt;
  }
  ++at;
  std::vector<int> values;
  while (at < line.size() && line[at] != ']') {
    int value = 0;
    const auto [end, ec] =
        std::from_chars(line.data() + at, line.data() + line.size(), value);
    if (ec != std::errc{}) return std::nullopt;
    values.push_back(value);
    at = static_cast<std::size_t>(end - line.data());
    if (at < line.size() && line[at] == ',') ++at;
  }
  if (at >= line.size()) return std::nullopt;  // unterminated array
  return values;
}

std::optional<bool> json_bool_field(std::string_view line,
                                    std::string_view key) {
  const std::size_t at = value_pos(line, key);
  if (at == std::string_view::npos) return std::nullopt;
  if (line.substr(at, 4) == "true") return true;
  if (line.substr(at, 5) == "false") return false;
  return std::nullopt;
}

std::string run_header_line(std::string_view bench, std::size_t grid_size,
                            std::uint64_t base_seed) {
  JsonObject o;
  o.field("record", "run_header")
      .field("bench", bench)
      .field("grid_cells", grid_size)
      .field("base_seed", base_seed);
  return std::move(o).str();
}

ResumeState scan_jsonl_resume(const std::string& path, std::string_view bench,
                              std::size_t grid_size, std::uint64_t base_seed) {
  ResumeState state;
  state.completed.assign(grid_size, false);
  std::ifstream in(path);
  if (!in) return state;  // nothing to resume — fresh run
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (const auto record = json_string_field(line, "record");
        record && *record == "run_header") {
      const auto header_bench = json_string_field(line, "bench");
      const auto cells = json_int_field(line, "grid_cells");
      // Seeds are unsigned 64-bit, past the range of json_int_field.
      const auto seed = int_field<std::uint64_t>(line, "base_seed");
      if (!header_bench || *header_bench != bench || !cells ||
          static_cast<std::size_t>(*cells) != grid_size || seed != base_seed) {
        throw std::runtime_error(
            path + ":" + std::to_string(line_no) +
            ": run manifest does not match this sweep (found " + line +
            ", expected bench '" + std::string(bench) + "', " +
            std::to_string(grid_size) + " cells, base seed " +
            std::to_string(base_seed) + ") — refusing to resume");
      }
      continue;
    }
    const auto cell = json_int_field(line, "cell");
    if (!cell || *cell < 0 ||
        static_cast<std::size_t>(*cell) >= grid_size) {
      continue;  // foreign or pre-resume-era record; leave it alone
    }
    const std::size_t i = static_cast<std::size_t>(*cell);
    if (!state.completed[i]) {
      state.completed[i] = true;
      ++state.num_completed;
      const auto status = json_string_field(line, "status");
      if (status && *status == "failed") ++state.num_failed;
    }
  }
  return state;
}

std::ofstream open_jsonl(const std::string& path, bool append) {
  std::ofstream out(path,
                    append ? (std::ios::out | std::ios::app) : std::ios::out);
  if (!out) {
    throw std::runtime_error("cannot open JSONL output file: " + path);
  }
  return out;
}

}  // namespace fl::runtime
