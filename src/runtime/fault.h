// Deterministic fault injection for sweep cells, JSONL writers, and the
// serve daemon's failure paths.
//
// Faults are configured either programmatically (tests build a FaultInjector
// and hand it to GridConfig::faults) or via the FL_FAULT environment
// variable, which the global() injector parses once at first use. Three
// selectors exist, and each fires on the numbers in [<n>, <n> + <count>)
// (count defaults to 1):
//
//   cell:<idx>:<kind>[:<count>]   fires before grid cells, by grid index
//   write:<seq>:<kind>[:<count>]  fires on durable JSONL syncs, by global
//                                 0-based sync sequence number
//   site:<name>:<kind>[:<count>]  fires at a named code site, by per-site
//                                 0-based hit number (serve daemon paths)
//
//   FL_FAULT="cell:7:throw"          cell 7 throws
//   FL_FAULT="cell:3:stall"          cell 3 stalls briefly, then throws
//   FL_FAULT="cell:0:oom"            cell 0 throws std::bad_alloc
//   FL_FAULT="cell:5:exit"           cell 5 kills the whole process
//                                    (std::_Exit(137), simulating an
//                                    OOM-kill — the resume smoke test)
//   FL_FAULT="cell:2:throw:3"        cells 2, 3 and 4 throw
//   FL_FAULT="write:2:ewrite"        the 3rd JsonlWriter sync fails the way
//                                    a full disk would (simulated ENOSPC)
//   FL_FAULT="write:0:ewrite:1000"   every sync fails — nothing durable
//   FL_FAULT="site:serve.stream:drop"      the daemon's first client-stream
//                                          write drops the connection
//   FL_FAULT="site:serve.job:exit"         the first serve job kills the
//                                          worker (and thus the daemon)
//   FL_FAULT="site:serve.drain:stall"      shutdown drain stalls once before
//                                          completing
//   FL_FAULT="cell:1:throw,cell:4:oom"     comma/semicolon-separated list
//
// Injection is a pure function of (selector, index-or-hit-count): the same
// spec always fails the same cells/syncs/sites, which is what lets the
// crash/resume integration tests assert byte-identical output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace fl::runtime {

enum class FaultKind : std::uint8_t {
  kThrow,   // throw FaultInjected
  kStall,   // busy-wait (polling an expiry predicate) then throw
  kOom,     // throw std::bad_alloc
  kExit,    // std::_Exit(137) — hard process death, nothing is flushed
  kEWrite,  // throw WriteFault (simulated ENOSPC/EIO on a durable write)
  kDrop,    // throw ConnectionDropped (simulated peer hangup mid-stream)
};
const char* to_string(FaultKind kind);

// The exception injected faults raise; distinguishable from real cell
// failures in tests via the "fault-injected" marker prefix in what().
class FaultInjected : public std::runtime_error {
 public:
  explicit FaultInjected(const std::string& message)
      : std::runtime_error("fault-injected: " + message) {}
};

// A durable write that failed — raised by kEWrite injection and by
// JsonlWriter when a real flush/fsync reports an error (ENOSPC, EIO). One
// type for both so every consumer handles the real failure the way the
// injected one is tested.
class WriteFault : public std::runtime_error {
 public:
  explicit WriteFault(const std::string& message)
      : std::runtime_error(message) {}
};

// A client connection that went away mid-stream (kDrop injection, or a real
// EPIPE/ECONNRESET mapped by the serve session layer).
class ConnectionDropped : public std::runtime_error {
 public:
  explicit ConnectionDropped(const std::string& message)
      : std::runtime_error(message) {}
};

struct FaultSpec {
  enum class Selector : std::uint8_t { kCell, kWrite, kSite };
  Selector selector = Selector::kCell;
  // kCell: first failing grid index. kWrite: first failing global sync
  // sequence number. kSite: first failing hit of `site`.
  std::size_t index = 0;
  std::string site;  // kSite only
  FaultKind kind = FaultKind::kThrow;
  // Fire while the cell index / sequence / hit number is in
  // [index, index + count).
  int count = 1;

  // Named builders mirroring the FL_FAULT selector syntax, for tests that
  // configure injectors programmatically.
  static FaultSpec at_cell(std::size_t cell, FaultKind kind, int count = 1) {
    return {Selector::kCell, cell, {}, kind, count};
  }
  static FaultSpec at_write(std::size_t seq, FaultKind kind, int count = 1) {
    return {Selector::kWrite, seq, {}, kind, count};
  }
  static FaultSpec at_site(std::string name, FaultKind kind, int count = 1) {
    return {Selector::kSite, 0, std::move(name), kind, count};
  }
};

class FaultInjector {
 public:
  FaultInjector() = default;
  // Parses a spec list ("cell:7:throw,write:0:ewrite"); throws
  // std::invalid_argument on malformed input. Empty string = no faults.
  static FaultInjector parse(std::string_view spec);
  // Process-wide injector configured from FL_FAULT (parsed once, at first
  // use). Unset/empty FL_FAULT yields an inert injector.
  static const FaultInjector& global();

  void add(FaultSpec spec) { specs_.push_back(std::move(spec)); }
  bool empty() const { return specs_.empty(); }

  // Called before every grid cell; raises the configured fault when a
  // `cell` spec covers `index`, or returns normally. kStall stalls for the
  // injector's fixed short interval, then throws.
  void inject_cell(std::size_t index) const;

  // Called by JsonlWriter before each durable sync with the global 0-based
  // sync sequence number; raises WriteFault (kEWrite) or the configured
  // fault when a `write` spec covers `seq`.
  void inject_write(std::uint64_t seq) const;

  // Called at a named serve-daemon code site. Counts hits per site (the
  // count lives in this injector, so tests with their own injector don't
  // share state with the global one) and raises the configured fault while
  // the hit number is covered. `expired` bounds kStall at sites that have a
  // natural budget; nullptr stalls for a fixed short interval instead of
  // forever, so an injected drain stall can never wedge the daemon.
  void inject_site(std::string_view site,
                   const std::function<bool()>& expired = nullptr) const;

 private:
  void raise(const FaultSpec& spec, const std::string& where,
             const std::function<bool()>& expired) const;

  std::vector<FaultSpec> specs_;
  // Per-site hit counters. Behind a shared_ptr so the injector stays
  // copyable/movable (parse() returns by value); copies deliberately share
  // their counters — they describe the same configured fault campaign.
  struct SiteState {
    std::mutex mu;
    std::unordered_map<std::string, std::uint64_t> hits;
  };
  std::shared_ptr<SiteState> site_state_ = std::make_shared<SiteState>();
};

}  // namespace fl::runtime
