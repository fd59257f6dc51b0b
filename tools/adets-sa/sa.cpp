#include "sa.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <regex>
#include <sstream>

namespace adets::sa {
namespace {

namespace fs = std::filesystem;

/// Files whose whole job is to wrap nondeterminism or implement the
/// locks themselves; the model neither parses nor audits them.
const std::vector<std::string>& exempt_suffixes() {
  static const std::vector<std::string>* s = new std::vector<std::string>{
      "common/annotations.hpp", "common/mutex.hpp",   "common/mutex.cpp",
      "common/lock_order.hpp",  "common/lock_order.cpp",
      "common/mc_hooks.hpp",    "common/mc_hooks.cpp",
      "common/clock.hpp",       "common/clock.cpp",
  };
  return *s;
}

bool is_exempt(const std::string& path) {
  for (const auto& suffix : exempt_suffixes()) {
    if (path.size() >= suffix.size() &&
        path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0) {
      return true;
    }
  }
  return false;
}

bool is_cpp_source(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".hpp" ||
         ext == ".hh" || ext == ".h";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

const std::vector<Rule>& rules() {
  static const std::vector<Rule>* r = new std::vector<Rule>{
      {"lock-cycle",
       "cycle in the static lock graph (acquire-while-held edges over the "
       "approximate call graph)"},
      {"requires-unheld",
       "call into an ADETS_REQUIRES function on a path that does not hold "
       "the required mutex"},
      {"unguarded-field",
       "mutable field of a mutex-owning class without ADETS_GUARDED_BY "
       "(or ADETS_GUARDED_BY_STATIC)"},
      {"condvar-unguarded",
       "condition-variable wait in a class with unguarded mutable state"},
      {"public-requires",
       "ADETS_REQUIRES function exposed as a public entry point without a "
       "lock-passing signature"},
      {"det-taint",
       "nondeterministic value (clock, thread id, pointer key, local rng) "
       "flows into scheduler decision state or a grant-path call"},
      {"blocking-under-monitor",
       "call chain that may block (condvar wait, sleep, ADETS_MAY_BLOCK "
       "boundary) while holding a scheduler/strategy mutex"},
      {"grant-path-taint",
       "nondeterminism source in a function reachable from a grant "
       "decision (interprocedural)"},
      {"grant-path-write",
       "write to a field with no ADETS_GUARDED_BY contract in a function "
       "reachable from a grant decision"},
      {"wall-clock", "steady_clock/system_clock/high_resolution_clock::now read"},
      {"thread-id", "std::this_thread::get_id in replicated code"},
      {"randomness", "rand()/srand()/std::random_device (unseeded randomness)"},
      {"unordered-iter", "iteration over a std::unordered_map/unordered_set"},
      {"raw-mutex", "raw std::mutex/std::condition_variable family type"},
      {"ptr-key", "pointer-keyed std::map/std::set"},
      {"real-time-wait", "timed condition-variable wait (wait_for/wait_until)"},
      {"sleep-for", "raw std::this_thread::sleep_for/sleep_until"},
      {"bad-allow", "adets-sa:allow suppression without a justification"},
  };
  return *r;
}

Allows collect_allows(const std::string& path, const std::vector<Line>& lines) {
  static const std::regex allow_re(
      R"(adets-sa:allow\(([A-Za-z0-9_-]+)\)\s*(.*))");
  Allows out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const int line = static_cast<int>(i) + 1;
    std::smatch m;
    std::string comment = lines[i].comment;
    while (std::regex_search(comment, m, allow_re)) {
      const std::string rule = m[1];
      const std::string reason = m[2];
      if (reason.find_first_not_of(" \t") == std::string::npos) {
        out.bad.push_back({path, line, "bad-allow",
                           "adets-sa:allow(" + rule +
                               ") has no justification; state why the "
                               "finding is safe"});
      } else {
        out.by_line[line].insert(rule);
        // An allow alone on a line also covers the next line.
        if (lines[i].code.find_first_not_of(" \t") == std::string::npos) {
          out.by_line[line + 1].insert(rule);
        }
      }
      comment = m.suffix();
    }
  }
  return out;
}

namespace {

/// What the scan keeps of one file's text: its tokens for the model,
/// its suppressions and its pass-5 findings.  All three come from one
/// preprocess() of the file.
struct FileFacts {
  std::vector<Token> tokens;
  Allows allows;
  std::vector<Finding> lexical;
};

FileFacts digest(const std::string& path, const std::string& content) {
  const std::vector<Line> lines = preprocess(content);
  std::vector<std::string> code;
  code.reserve(lines.size());
  for (const auto& l : lines) code.push_back(l.code);
  return {tokenize(code), collect_allows(path, lines), lexical_pass(path, lines)};
}

/// Process-wide parsed-file memo: repeated scans (the test binary runs
/// dozens; shared headers appear under several roots) digest each file
/// once per (path, mtime, size).
struct MemoEntry {
  fs::file_time_type mtime;
  std::uintmax_t size = 0;
  FileFacts facts;
};

std::map<std::string, MemoEntry>& parse_memo() {
  static auto* m = new std::map<std::string, MemoEntry>();
  return *m;
}

/// One scan in progress: the model, each file's suppressions, and the
/// findings gathered so far.
struct Audit {
  Program& prog;
  std::map<std::string, Allows> allows;
  std::vector<Finding> raw;

  void add(const std::string& path, const FileFacts& facts) {
    prog.parse_tokens(path, facts.tokens);  // copy; parse consumes
    allows[path] = facts.allows;
    raw.insert(raw.end(), facts.lexical.begin(), facts.lexical.end());
  }

  /// Runs passes 1-4 over the finalized model, applies suppressions and
  /// appends the surviving findings to `out` in report order.
  void finish(std::vector<Finding>& out) {
    prog.finalize();
    for (auto& f : lock_graph_pass(prog)) raw.push_back(std::move(f));
    for (auto& f : guard_pass(prog)) raw.push_back(std::move(f));
    for (auto& f : taint_pass(prog)) raw.push_back(std::move(f));
    for (auto& f : effects_pass(prog)) raw.push_back(std::move(f));

    for (auto& f : raw) {
      const auto it = allows.find(f.file);
      if (it != allows.end()) {
        const auto at = it->second.by_line.find(f.line);
        if (at != it->second.by_line.end() && at->second.count(f.rule) > 0) {
          continue;
        }
      }
      out.push_back(std::move(f));
    }
    for (auto& [file, a] : allows) {
      for (auto& f : a.bad) out.push_back(std::move(f));
    }

    // condvar-unguarded is derived from unguarded fields; once every such
    // field in the class is fixed or carries a justified suppression, the
    // wait-site findings would only restate the same decision.
    std::set<std::string> still_unguarded;
    for (const auto& f : out) {
      if (f.rule == "unguarded-field") still_unguarded.insert(f.cls);
    }
    out.erase(std::remove_if(out.begin(), out.end(),
                             [&](const Finding& f) {
                               return f.rule == "condvar-unguarded" &&
                                      still_unguarded.count(f.cls) == 0;
                             }),
              out.end());

    // Stable report order: file, then line, then rule.
    std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
      if (a.file != b.file) return a.file < b.file;
      if (a.line != b.line) return a.line < b.line;
      return a.rule < b.rule;
    });
  }
};

}  // namespace

std::vector<Finding> scan(const std::vector<std::string>& paths,
                          Program* model_out, ScanStats* stats_out) {
  using clock = std::chrono::steady_clock;
  ScanStats stats;
  // Expand to the file list.
  std::vector<std::string> files;
  std::vector<Finding> out;
  for (const auto& p : paths) {
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (const auto& entry : fs::recursive_directory_iterator(p, ec)) {
        if (entry.is_regular_file() && is_cpp_source(entry.path())) {
          files.push_back(entry.path().generic_string());
        }
      }
    } else if (fs::is_regular_file(p, ec)) {
      files.push_back(p);
    } else {
      out.push_back({p, 0, "io-error", "cannot read path"});
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  const auto parse_start = clock::now();
  Program local;
  Audit audit{model_out != nullptr ? *model_out : local, {}, {}};
  for (const auto& f : files) {
    if (is_exempt(f)) continue;
    stats.files++;
    std::error_code ec;
    const auto mtime = fs::last_write_time(f, ec);
    const auto size = fs::file_size(f, ec);
    auto memo = parse_memo().find(f);
    if (!ec && memo != parse_memo().end() && memo->second.mtime == mtime &&
        memo->second.size == size) {
      stats.memo_hits++;
    } else {
      std::ifstream in(f, std::ios::binary);
      if (!in) {
        out.push_back({f, 0, "io-error", "cannot read file"});
        continue;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      // On a stat error the entry is stored but never served (!ec above).
      memo = parse_memo()
                 .insert_or_assign(f, MemoEntry{mtime, size, digest(f, buf.str())})
                 .first;
    }
    audit.add(f, memo->second.facts);
  }
  const auto analyze_start = clock::now();
  audit.finish(out);
  using ms = std::chrono::duration<double, std::milli>;
  stats.parse_ms = ms(analyze_start - parse_start).count();
  stats.analyze_ms = ms(clock::now() - analyze_start).count();
  if (stats_out != nullptr) *stats_out = stats;
  return out;
}

std::vector<Finding> scan_source(const std::string& path,
                                 const std::string& content) {
  Program prog;
  Audit audit{prog, {}, {}};
  if (!is_exempt(path)) audit.add(path, digest(path, content));
  std::vector<Finding> out;
  audit.finish(out);
  return out;
}

std::string to_string(const Finding& finding) {
  return finding.file + ":" + std::to_string(finding.line) + ": [" +
         finding.rule + "] " + finding.message;
}

std::string to_sarif(const std::vector<Finding>& findings) {
  std::ostringstream out;
  out << "{\n"
      << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [{\n"
      << "    \"tool\": {\"driver\": {\"name\": \"adets-sa\", \"rules\": [";
  bool first = true;
  for (const auto& r : rules()) {
    out << (first ? "" : ", ") << "{\"id\": \"" << r.name
        << "\", \"shortDescription\": {\"text\": \"" << json_escape(r.summary)
        << "\"}}";
    first = false;
  }
  out << "]}},\n    \"results\": [";
  first = true;
  for (const auto& f : findings) {
    out << (first ? "\n" : ",\n")
        << "      {\"ruleId\": \"" << f.rule
        << "\", \"level\": \"error\", \"message\": {\"text\": \""
        << json_escape(f.message)
        << "\"}, \"locations\": [{\"physicalLocation\": {\"artifactLocation\": "
           "{\"uri\": \""
        << json_escape(f.file) << "\"}, \"region\": {\"startLine\": "
        << (f.line > 0 ? f.line : 1) << "}}}]}";
    first = false;
  }
  out << "\n    ]\n  }]\n}\n";
  return out.str();
}

int run_cli(const std::vector<std::string>& args) {
  bool report = false;
  std::string sarif_path;
  std::vector<std::string> paths;
  static const char* usage =
      "usage: adets-sa [--report] [--rules] [--sarif out.sarif] <path>...\n";
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--report") {
      report = true;
    } else if (a == "--rules") {
      for (const auto& r : rules()) {
        std::cout << r.name << ": " << r.summary << "\n";
      }
      return 0;
    } else if (a == "--sarif") {
      if (i + 1 >= args.size()) {
        std::cerr << "adets-sa: --sarif requires a file argument\n";
        return 2;
      }
      sarif_path = args[++i];
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "adets-sa: unknown flag '" << a << "'\n" << usage;
      return 2;
    } else {
      paths.push_back(a);
    }
  }
  if (paths.empty()) {
    std::cerr << usage;
    return 2;
  }
  Program prog;
  ScanStats stats;
  const std::vector<Finding> findings = scan(paths, &prog, &stats);
  bool io_error = false;
  for (const auto& f : findings) {
    if (f.rule == "io-error") io_error = true;
    std::cout << to_string(f) << "\n";
  }
  if (report) {
    std::size_t bodies = 0;
    std::size_t acquisitions = 0;
    std::size_t annotated = 0;
    std::set<std::string> mutexes;
    for (const auto& fn : prog.functions) {
      if (!fn.statements.empty() || !fn.calls.empty()) bodies++;
      acquisitions += fn.acquisitions.size();
      if (!fn.requires_held.empty() || !fn.acquires.empty()) annotated++;
      for (const auto& a : fn.acquisitions) mutexes.insert(a.mutex_key);
    }
    std::size_t guarded = 0;
    std::size_t fields = 0;
    for (const auto& c : prog.classes) {
      for (const auto& f : c.fields) {
        fields++;
        if (!f.guarded_by.empty()) guarded++;
      }
    }
    std::cerr << "adets-sa model: " << prog.classes.size() << " classes, "
              << prog.functions.size() << " functions (" << bodies
              << " with bodies), " << fields << " fields (" << guarded
              << " lock-annotated), " << annotated
              << " annotated functions, " << acquisitions
              << " lock acquisitions over " << mutexes.size()
              << " distinct mutexes; " << findings.size()
              << " finding(s)\n";
    std::cerr << "adets-sa timing: " << stats.files << " files ("
              << stats.memo_hits << " memo hits), parse "
              << static_cast<long long>(stats.parse_ms) << " ms, analyze "
              << static_cast<long long>(stats.analyze_ms) << " ms\n";
  }
  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path, std::ios::binary);
    if (!out) {
      std::cerr << "adets-sa: cannot write " << sarif_path << "\n";
      return 2;
    }
    out << to_sarif(findings);
  }
  if (io_error) return 2;
  return findings.empty() ? 0 : 1;
}

}  // namespace adets::sa
