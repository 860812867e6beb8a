#include "locking/scheme.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/full_lock.h"
#include "locking/antisat.h"
#include "locking/crosslock.h"
#include "locking/interlock.h"
#include "locking/lutlock.h"
#include "locking/rll.h"
#include "locking/sarlock.h"
#include "locking/sfll_hd.h"
#include "netlist/bench_io.h"
#include "netlist/verilog_io.h"

namespace fl::lock {

void parse_params_into(SchemeOptions& options, std::string_view text) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(',', pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view entry = text.substr(pos, end - pos);
    pos = end + 1;
    // Trim surrounding whitespace.
    while (!entry.empty() && entry.front() == ' ') entry.remove_prefix(1);
    while (!entry.empty() && entry.back() == ' ') entry.remove_suffix(1);
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      throw std::invalid_argument("scheme parameter '" + std::string(entry) +
                                  "' is not of the form key=value");
    }
    options.params[std::string(entry.substr(0, eq))] =
        std::string(entry.substr(eq + 1));
  }
}

// Typed accessors over SchemeOptions.params. Every accepted key is recorded
// (with its resolved value) so finish() can reject unknown parameters and
// canonical() can rebuild a stable, fully-resolved parameter string.
class ParamReader {
 public:
  ParamReader(std::string_view scheme, const SchemeOptions& options)
      : scheme_(scheme), options_(options) {}

  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument(std::string(scheme_) + ": " + what);
  }

  long long get_int(const std::string& key, long long fallback,
                    long long min_value, long long max_value) {
    long long value = fallback;
    if (const std::string* raw = raw_value(key)) {
      char* end = nullptr;
      value = std::strtoll(raw->c_str(), &end, 10);
      if (end == raw->c_str() || *end != '\0') {
        fail("parameter " + key + " must be an integer, got '" + *raw + "'");
      }
    }
    if (value < min_value || value > max_value) {
      fail("parameter " + key + " must be in [" + std::to_string(min_value) +
           ", " + std::to_string(max_value) + "], got " +
           std::to_string(value));
    }
    note(key, std::to_string(value));
    return value;
  }

  // Like get_int, but an un-set key falls back to the first entry of the
  // generic sizes axis before the default — sizes are each scheme's "main
  // knob" in sweep grids.
  long long get_knob(const std::string& key, long long fallback,
                     long long min_value, long long max_value) {
    if (raw_value(key) == nullptr && !options_.sizes.empty()) {
      fallback = options_.sizes.front();
    }
    return get_int(key, fallback, min_value, max_value);
  }

  double get_double(const std::string& key, double fallback, double min_value,
                    double max_value) {
    double value = fallback;
    if (const std::string* raw = raw_value(key)) {
      char* end = nullptr;
      value = std::strtod(raw->c_str(), &end);
      if (end == raw->c_str() || *end != '\0') {
        fail("parameter " + key + " must be a number, got '" + *raw + "'");
      }
    }
    if (!(value >= min_value) || !(value <= max_value)) {
      fail("parameter " + key + " must be in [" + format_double(min_value) +
           ", " + format_double(max_value) + "]");
    }
    note(key, format_double(value));
    return value;
  }

  bool get_bool(const std::string& key, bool fallback) {
    bool value = fallback;
    if (const std::string* raw = raw_value(key)) {
      if (*raw == "1" || *raw == "true") {
        value = true;
      } else if (*raw == "0" || *raw == "false") {
        value = false;
      } else {
        fail("parameter " + key + " must be 0/1/true/false, got '" + *raw +
             "'");
      }
    }
    note(key, value ? "1" : "0");
    return value;
  }

  std::string get_choice(const std::string& key, const std::string& fallback,
                         const std::vector<std::string>& allowed) {
    std::string value = fallback;
    if (const std::string* raw = raw_value(key)) value = *raw;
    if (std::find(allowed.begin(), allowed.end(), value) == allowed.end()) {
      std::string all;
      for (const std::string& a : allowed) {
        if (!all.empty()) all += "|";
        all += a;
      }
      fail("parameter " + key + " must be one of " + all + ", got '" + value +
           "'");
    }
    note(key, value);
    return value;
  }

  // The multi-size axis for schemes that insert one block per entry
  // (full-lock, interlock): the "sizes" parameter ("16+8+4", '+'-separated
  // so it survives the comma-separated parameter list), else the generic
  // sizes vector, else `fallback`.
  std::vector<int> get_sizes(std::vector<int> fallback, int min_value,
                             int max_value) {
    std::vector<int> sizes;
    if (const std::string* raw = raw_value("sizes")) {
      std::size_t pos = 0;
      while (pos <= raw->size()) {
        std::size_t end = raw->find('+', pos);
        if (end == std::string::npos) end = raw->size();
        const std::string part = raw->substr(pos, end - pos);
        pos = end + 1;
        if (part.empty()) fail("parameter sizes has an empty entry");
        char* cend = nullptr;
        const long long v = std::strtoll(part.c_str(), &cend, 10);
        if (cend == part.c_str() || *cend != '\0') {
          fail("parameter sizes entry '" + part + "' is not an integer");
        }
        sizes.push_back(static_cast<int>(v));
        if (end == raw->size()) break;
      }
    } else if (!options_.sizes.empty()) {
      sizes = options_.sizes;
    } else {
      sizes = std::move(fallback);
    }
    std::string canon;
    for (const int n : sizes) {
      if (n < min_value || n > max_value) {
        fail("sizes entries must be in [" + std::to_string(min_value) + ", " +
             std::to_string(max_value) + "], got " + std::to_string(n));
      }
      if (!canon.empty()) canon += "+";
      canon += std::to_string(n);
    }
    note("sizes", canon);
    return sizes;
  }

  // Rejects parameters no accessor asked about.
  void finish() const {
    for (const auto& [key, value] : options_.params) {
      if (seen_.count(key) != 0) continue;
      std::string known;
      for (const std::string& k : seen_) {
        if (!known.empty()) known += ", ";
        known += k;
      }
      fail("unknown parameter '" + key + "' (known: " +
           (known.empty() ? "none" : known) + ")");
    }
  }

  const std::string& canonical() const { return canonical_; }

 private:
  const std::string* raw_value(const std::string& key) {
    const auto it = options_.params.find(key);
    return it == options_.params.end() ? nullptr : &it->second;
  }

  static std::string format_double(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
  }

  void note(const std::string& key, const std::string& value) {
    seen_.insert(key);
    if (!canonical_.empty()) canonical_ += ",";
    canonical_ += key + "=" + value;
  }

  std::string_view scheme_;
  const SchemeOptions& options_;
  std::set<std::string> seen_;
  std::string canonical_;
};

namespace {

core::ClnTopology parse_topology(ParamReader& reader) {
  return reader.get_choice("topology", "banyan", {"banyan", "shuffle"}) ==
                 "shuffle"
             ? core::ClnTopology::kShuffleBlocking
             : core::ClnTopology::kBanyanNonBlocking;
}

// The registry, sorted by name. Each entry reads only its own parameters;
// LockScheme rejects the rest and stamps the canonical string.
constexpr LockScheme kSchemes[] = {
    {"antisat",
     "g(X^K1) AND NOT g(X^K2) block XORed into one output (SPS's skew "
     "target)",
     "inputs=8 (block inputs; or first size; clamped to the input count)",
     /*point_function=*/true,
     [](ParamReader& reader, std::uint64_t seed) -> LockScheme::Lock {
       AntiSatConfig config;
       config.seed = seed;
       config.block_inputs =
           static_cast<int>(reader.get_knob("inputs", 8, 1, 256));
       return [config](const netlist::Netlist& host) {
         return antisat_lock(host, config);
       };
     }},
    {"cross-lock",
     "crossbar MUX-tree interconnect locking (no inverters/LUTs; removal "
     "recovers it)",
     "sources=32 (or first size), dests=sources+4",
     /*point_function=*/false,
     [](ParamReader& reader, std::uint64_t seed) -> LockScheme::Lock {
       CrossLockConfig config;
       config.seed = seed;
       config.num_sources =
           static_cast<int>(reader.get_knob("sources", 32, 2, 4096));
       config.num_destinations = static_cast<int>(
           reader.get_int("dests", config.num_sources + 4, 2, 8192));
       return [config](const netlist::Netlist& host) {
         return crosslock_lock(host, config);
       };
     }},
    {"full-lock",
     "PLRs: key-routed CLN + key-configurable inverters + key-programmable "
     "LUTs (the paper's scheme)",
     "sizes=16 (CLN widths, '+'-separated; one PLR each), "
     "topology=banyan|shuffle, cycle=avoid|allow|force, twist=1, "
     "negate=0.5, decompose=0",
     /*point_function=*/false,
     [](ParamReader& reader, std::uint64_t seed) -> LockScheme::Lock {
       const std::vector<int> sizes = reader.get_sizes({16}, 4, 4096);
       const core::ClnTopology topology = parse_topology(reader);
       const std::string cycle =
           reader.get_choice("cycle", "avoid", {"avoid", "allow", "force"});
       const bool twist = reader.get_bool("twist", true);
       const double negate = reader.get_double("negate", 0.5, 0.0, 1.0);
       core::CycleMode mode = core::CycleMode::kAvoid;
       if (cycle == "allow") mode = core::CycleMode::kAllow;
       if (cycle == "force") mode = core::CycleMode::kForce;
       core::FullLockConfig config = core::FullLockConfig::with_plrs(
           sizes, topology, mode, twist, negate, seed);
       config.decompose_two_input = reader.get_bool("decompose", false);
       return [config](const netlist::Netlist& host) {
         return core::full_lock(host, config);
       };
     }},
    {"interlock",
     "logic folded into key-routed CLN blocks; removal loses real logic "
     "(Full-Lock successor)",
     "sizes=8 (CLN widths, '+'-separated; one block each), fold=1 "
     "(fraction of outputs absorbing a consumer LUT), negate=0.5, "
     "topology=banyan|shuffle",
     /*point_function=*/false,
     [](ParamReader& reader, std::uint64_t seed) -> LockScheme::Lock {
       const std::vector<int> sizes = reader.get_sizes({8}, 4, 4096);
       const double fold = reader.get_double("fold", 1.0, 0.0, 1.0);
       const double negate = reader.get_double("negate", 0.5, 0.0, 1.0);
       const core::ClnTopology topology = parse_topology(reader);
       InterLockConfig config =
           InterLockConfig::with_blocks(sizes, fold, negate, seed);
       for (InterLockBlockConfig& block : config.blocks) {
         block.cln.topology = topology;
       }
       return [config](const netlist::Netlist& host) {
         return interlock_lock(host, config);
       };
     }},
    {"lut-lock",
     "selected gates replaced by key-programmable LUTs (no routing fabric)",
     "luts=8 (or first size), prefer_small=1",
     /*point_function=*/false,
     [](ParamReader& reader, std::uint64_t seed) -> LockScheme::Lock {
       LutLockConfig config;
       config.seed = seed;
       config.num_luts =
           static_cast<int>(reader.get_knob("luts", 8, 1, 100000));
       config.prefer_small = reader.get_bool("prefer_small", true);
       return [config](const netlist::Netlist& host) {
         return lutlock_lock(host, config);
       };
     }},
    {"rll", "random XOR/XNOR key gates (EPIC baseline)",
     "keys=32 (or first size)",
     /*point_function=*/false,
     [](ParamReader& reader, std::uint64_t seed) -> LockScheme::Lock {
       RllConfig config;
       config.seed = seed;
       config.num_keys =
           static_cast<int>(reader.get_knob("keys", 32, 1, 100000));
       return [config](const netlist::Netlist& host) {
         return rll_lock(host, config);
       };
     }},
    {"sarlock",
     "point-function comparator: each wrong key errs on exactly one input "
     "pattern",
     "keys=16 (or first size; clamped to the input count)",
     /*point_function=*/true,
     [](ParamReader& reader, std::uint64_t seed) -> LockScheme::Lock {
       SarLockConfig config;
       config.seed = seed;
       config.num_keys = static_cast<int>(reader.get_knob("keys", 16, 1, 256));
       return [config](const netlist::Netlist& host) {
         return sarlock_lock(host, config);
       };
     }},
    {"sfll-hd",
     "stripped function + Hamming-distance restore unit (FALL's target)",
     "keys=16 (or first size; clamped to the input count), hd=2",
     /*point_function=*/true,
     [](ParamReader& reader, std::uint64_t seed) -> LockScheme::Lock {
       SfllHdConfig config;
       config.seed = seed;
       config.num_keys = static_cast<int>(reader.get_knob("keys", 16, 1, 256));
       config.hd = static_cast<int>(reader.get_int("hd", 2, 0, 256));
       if (config.hd > config.num_keys) {
         reader.fail("parameter hd must be <= keys");
       }
       return [config](const netlist::Netlist& host) {
         return sfll_hd_lock(host, config);
       };
     }},
};

}  // namespace

LockScheme::Lock LockScheme::parse(const SchemeOptions& options,
                                   std::string* canonical) const {
  ParamReader reader(name_, options);
  Lock lock = parse_(reader, options.seed);
  reader.finish();
  if (canonical != nullptr) *canonical = reader.canonical();
  return lock;
}

void LockScheme::validate(const SchemeOptions& options) const {
  parse(options, nullptr);
}

core::LockedCircuit LockScheme::lock(const netlist::Netlist& original,
                                     const SchemeOptions& options) const {
  std::string canonical;
  core::LockedCircuit locked = parse(options, &canonical)(original);
  locked.params = std::move(canonical);
  return locked;
}

const std::vector<const LockScheme*>& registry() {
  static const std::vector<const LockScheme*> view = [] {
    std::vector<const LockScheme*> v;
    for (const LockScheme& s : kSchemes) v.push_back(&s);
    return v;
  }();
  return view;
}

const LockScheme* find_scheme(std::string_view name) {
  for (const LockScheme* scheme : registry()) {
    if (scheme->name() == name) return scheme;
  }
  return nullptr;
}

std::string scheme_names() {
  std::string names;
  for (const LockScheme* scheme : registry()) {
    if (!names.empty()) names += ", ";
    names += scheme->name();
  }
  return names;
}

core::LockedCircuit lock_with(std::string_view scheme,
                              const netlist::Netlist& original,
                              const SchemeOptions& options) {
  const LockScheme* s = find_scheme(scheme);
  if (s == nullptr) {
    throw std::invalid_argument("unknown lock scheme '" + std::string(scheme) +
                                "' (known: " + scheme_names() + ")");
  }
  return s->lock(original, options);
}

std::string resolve_attack(std::string_view requested, bool cyclic) {
  std::string name = requested == "auto"
                         ? (cyclic ? "cycsat" : "sat")
                         : std::string(requested);
  if (name == "double-dip" && cyclic) name = "cycsat";
  return name;
}

void write_locked_circuit(const core::LockedCircuit& locked,
                          const std::string& path) {
  const auto header = [&](std::ostream& out) {
    out << "# lock-scheme: " << locked.scheme << "\n";
    if (!locked.params.empty()) out << "# lock-params: " << locked.params
                                    << "\n";
  };
  {
    std::ofstream out(path);
    header(out);
    netlist::write_bench(locked.netlist, out);
    if (!out) {
      throw std::runtime_error("writing " + path + " failed (disk full?)");
    }
  }
  {
    std::ofstream key_file(path + ".key");
    header(key_file);
    for (std::size_t i = 0; i < locked.correct_key.size(); ++i) {
      key_file << locked.netlist.gate(locked.netlist.keys()[i]).name << " "
               << (locked.correct_key[i] ? 1 : 0) << "\n";
    }
    if (!key_file) {
      throw std::runtime_error("writing " + path +
                               ".key failed (disk full?)");
    }
  }
  {
    std::ofstream v_file(path + ".v");
    netlist::write_verilog(locked.netlist, v_file);
    if (!v_file) {
      throw std::runtime_error("writing " + path + ".v failed (disk full?)");
    }
  }
}

core::LockedCircuit read_locked_circuit(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  core::LockedCircuit locked;
  locked.scheme = "file";
  // Scan the header comments for provenance (the bench reader skips '#').
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string_view line(text.data() + pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    if (line.front() != '#') break;  // header comments only
    constexpr std::string_view kScheme = "# lock-scheme: ";
    constexpr std::string_view kParams = "# lock-params: ";
    if (line.rfind(kScheme, 0) == 0) {
      locked.scheme = std::string(line.substr(kScheme.size()));
    } else if (line.rfind(kParams, 0) == 0) {
      locked.params = std::string(line.substr(kParams.size()));
    }
  }
  locked.netlist = netlist::read_bench_string(text, path);
  return locked;
}

}  // namespace fl::lock
