#include "runtime/fault.h"

#include <charconv>
#include <chrono>
#include <cstdlib>
#include <new>
#include <thread>

namespace fl::runtime {

namespace {

[[noreturn]] void bad_spec(std::string_view spec, std::string_view why) {
  throw std::invalid_argument(
      "malformed fault spec '" + std::string(spec) + "': " + std::string(why) +
      " (expected cell:<idx>|write:<seq>|site:<name>, then :<kind>[:<count>])");
}

FaultSpec parse_one(std::string_view item) {
  std::vector<std::string_view> parts;
  std::size_t at = 0;
  while (at <= item.size()) {
    const std::size_t colon = item.find(':', at);
    if (colon == std::string_view::npos) {
      parts.push_back(item.substr(at));
      break;
    }
    parts.push_back(item.substr(at, colon - at));
    at = colon + 1;
  }
  if (parts.size() < 3 || parts.size() > 4) bad_spec(item, "wrong arity");

  FaultSpec spec;
  const auto parse_num = [&](std::string_view text, auto* out,
                             std::string_view what) {
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), *out);
    if (ec != std::errc{} || end != text.data() + text.size()) {
      bad_spec(item, what);
    }
  };

  if (parts[0] == "cell") {
    spec.selector = FaultSpec::Selector::kCell;
    parse_num(parts[1], &spec.index, "bad cell index");
  } else if (parts[0] == "write") {
    spec.selector = FaultSpec::Selector::kWrite;
    parse_num(parts[1], &spec.index, "bad sync sequence number");
  } else if (parts[0] == "site") {
    spec.selector = FaultSpec::Selector::kSite;
    if (parts[1].empty()) bad_spec(item, "empty site name");
    spec.site = std::string(parts[1]);
    spec.index = 0;  // sites fire from their first hit; count bounds them
  } else {
    bad_spec(item, "unknown selector");
  }

  if (parts[2] == "throw") {
    spec.kind = FaultKind::kThrow;
  } else if (parts[2] == "stall") {
    spec.kind = FaultKind::kStall;
  } else if (parts[2] == "oom") {
    spec.kind = FaultKind::kOom;
  } else if (parts[2] == "exit") {
    spec.kind = FaultKind::kExit;
  } else if (parts[2] == "ewrite") {
    spec.kind = FaultKind::kEWrite;
  } else if (parts[2] == "drop") {
    spec.kind = FaultKind::kDrop;
  } else {
    bad_spec(item, "unknown fault kind");
  }

  if (parts.size() == 4) {
    parse_num(parts[3], &spec.count, "bad count");
    if (spec.count < 1) bad_spec(item, "count must be >= 1");
  }
  return spec;
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kThrow: return "throw";
    case FaultKind::kStall: return "stall";
    case FaultKind::kOom: return "oom";
    case FaultKind::kExit: return "exit";
    case FaultKind::kEWrite: return "ewrite";
    case FaultKind::kDrop: return "drop";
  }
  return "?";
}

FaultInjector FaultInjector::parse(std::string_view spec) {
  FaultInjector injector;
  std::size_t at = 0;
  while (at < spec.size()) {
    const std::size_t sep = spec.find_first_of(",;", at);
    const std::string_view item =
        spec.substr(at, sep == std::string_view::npos ? spec.size() - at
                                                      : sep - at);
    if (!item.empty()) injector.add(parse_one(item));
    if (sep == std::string_view::npos) break;
    at = sep + 1;
  }
  return injector;
}

const FaultInjector& FaultInjector::global() {
  static const FaultInjector injector = [] {
    const char* env = std::getenv("FL_FAULT");
    return env != nullptr ? parse(env) : FaultInjector{};
  }();
  return injector;
}

void FaultInjector::raise(const FaultSpec& spec, const std::string& where,
                          const std::function<bool()>& expired) const {
  switch (spec.kind) {
    case FaultKind::kThrow:
      throw FaultInjected(where);
    case FaultKind::kStall: {
      // A runaway task: burns its budget (polling `expired`), then dies the
      // way a real hung solve would — with an exception after the deadline.
      // Without a predicate, degrade to a short bounded stall rather than
      // hang the process forever.
      const auto hard_stop =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
      while (expired ? !expired()
                     : std::chrono::steady_clock::now() < hard_stop) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      throw FaultInjected(where + " stalled past its budget");
    }
    case FaultKind::kOom:
      throw std::bad_alloc();
    case FaultKind::kExit:
      // Simulates SIGKILL / the kernel OOM-killer: no unwinding, no flush.
      // Only records already fsynced survive — exactly what the resume
      // workflow has to cope with.
      std::_Exit(137);
    case FaultKind::kEWrite:
      throw WriteFault("fault-injected: ewrite (simulated ENOSPC) at " +
                       where);
    case FaultKind::kDrop:
      throw ConnectionDropped("fault-injected: peer dropped at " + where);
  }
}

void FaultInjector::inject_cell(std::size_t index) const {
  for (const FaultSpec& spec : specs_) {
    if (spec.selector != FaultSpec::Selector::kCell) continue;
    if (index < spec.index ||
        index >= spec.index + static_cast<std::size_t>(spec.count)) {
      continue;
    }
    raise(spec, "cell " + std::to_string(index), nullptr);
  }
}

void FaultInjector::inject_write(std::uint64_t seq) const {
  for (const FaultSpec& spec : specs_) {
    if (spec.selector != FaultSpec::Selector::kWrite) continue;
    if (seq < spec.index ||
        seq >= spec.index + static_cast<std::uint64_t>(spec.count)) {
      continue;
    }
    raise(spec, "jsonl sync #" + std::to_string(seq), nullptr);
  }
}

void FaultInjector::inject_site(std::string_view site,
                                const std::function<bool()>& expired) const {
  const FaultSpec* match = nullptr;
  for (const FaultSpec& spec : specs_) {
    if (spec.selector == FaultSpec::Selector::kSite && spec.site == site) {
      match = &spec;
      break;
    }
  }
  if (match == nullptr) return;  // hit counters only exist for armed sites
  std::uint64_t hit = 0;
  {
    std::lock_guard<std::mutex> lock(site_state_->mu);
    hit = site_state_->hits[std::string(site)]++;
  }
  if (hit >= static_cast<std::uint64_t>(match->count)) return;
  raise(*match, "site " + std::string(site) + " hit " + std::to_string(hit),
        expired);
}

}  // namespace fl::runtime
