// dcn-lint rule engine v2 — the project-contract checks no compiler enforces.
//
// The repo's correctness story rests on invariants that are easy to break
// silently: the bit-exact determinism contract (fixed double-accumulation
// order in GEMM/conv, seeded RNG streams only — never ambient entropy), the
// threading discipline (one compute pool in src/runtime/, one dispatcher
// thread in src/serve/, nothing else spawns threads or takes locks inside
// parallel_for workers), and — since the network tier landed — the layering
// that keeps model code free of sockets and the serving hot path free of
// blocking calls under its locks.
//
// v2 architecture: every file is lowered to a FileModel — a lightweight
// tokenizer pass that blanks comments/literals (so rules match real code
// only), records suppression directives with their source lines, classifies
// the file by its place in the tree, and extracts its project #include
// edges. Per-file rules run over one model; cross-file rules run over the
// whole set of models at once (check_tree), following the include graph.
// check_source(path, content) remains the single-file entry point and is
// exactly check_tree on a one-file tree.
//
// Per-file rules (ids are what suppression comments name):
//
//   entropy                 src/ only. rand/srand/rand_r/drand48/random_device/
//                           time() are banned entropy sources; all randomness
//                           must flow through seeded dcn Rng streams. Clocks
//                           split by intent: system_clock and
//                           high_resolution_clock (wall time / unspecified
//                           aliasing) are banned everywhere in src/, while the
//                           monotonic steady_clock is legal in the layers
//                           whose job is timing — src/obs/, src/runtime/,
//                           src/serve/, src/eval/ — and banned elsewhere
//                           (monotonic timing is observability, not entropy,
//                           but model code has no business reading clocks).
//   raw-thread              Everywhere except src/runtime/ and src/serve/.
//                           std::thread / std::jthread / std::async and raw
//                           new[] / delete[] are reserved for the runtime and
//                           serve layers; compute goes through parallel_for,
//                           storage through containers.
//   float-accumulator       GEMM/conv reduction kernels only (fixed file set).
//                           A `float` variable that is later `+=`-ed breaks
//                           the double-accumulation determinism contract.
//   no-cout                 src/ only. std::cout / printf / puts in library
//                           code; output belongs to callers (render()/JSON).
//   pragma-once             Every header must contain `#pragma once`.
//   using-namespace-header  `using namespace` at header scope leaks into
//                           every includer.
//   mutex-in-parallel-for   Lock acquisition inside a parallel_for call span
//                           serializes the pool; use per-chunk buffers and a
//                           sequential merge instead.
//   simd                    Everywhere except src/tensor/simd/. Raw SIMD
//                           intrinsics (_mm*/vld1q*-style identifiers,
//                           immintrin.h/arm_neon.h includes) are confined to
//                           the dispatch-fenced microkernel directory, where
//                           the differential harness (tests/kernel_diff.hpp)
//                           holds them to the bit-exactness contract.
//   rng-contract            src/ only. Minting an Rng stream (any `Rng x(...)`
//                           / `Rng(...)` construction) is confined to the
//                           model/data layers that own seeds (src/tensor/,
//                           src/data/, src/models/, src/nn/, src/attacks/,
//                           src/defenses/) plus the blessed core files that
//                           seed the detector/corrector family. The
//                           infrastructure layers (src/runtime/, src/serve/,
//                           src/obs/, src/eval/) never create streams — a
//                           stream minted there would break the replica
//                           determinism contract. Repositioning a stream
//                           (Rng::discard / Rng::set_state) is confined to
//                           src/tensor/random.*, src/tensor/rng_skip.*, and
//                           src/core/corrector.cpp: everything else must go
//                           through the segment/skip APIs (tensor/rng_skip.hpp)
//                           so the stream layout survives bit-for-bit.
//                           Trace/span ids are the one sanctioned
//                           infrastructure use of Rng, confined to the
//                           blessed id generator src/obs/trace_id.cpp; and
//                           calling the id-minting API (mint_trace_context /
//                           mint_span_id) from src/ is confined to src/obs/
//                           and src/serve/ — model code never mints ids.
//   mutex-hygiene           src/serve/net/ and src/obs/ only. (a) Blocking
//                           calls (socket IO, poll/epoll, sleeps, joins) are
//                           banned inside a lock_guard/unique_lock/scoped_lock
//                           scope — the serving hot path must never hold a
//                           lock across anything that can stall.
//                           (b) A std::atomic field whose name suggests a
//                           seqlock version counter (contains `version` or
//                           `seq`) must carry the word "seqlock" in a comment
//                           on its declaration line or within the 8 lines
//                           above, so the torn-read protocol is discoverable
//                           at the field.
//
// Cross-file rules (run by check_tree over the include graph):
//
//   include-layering        (a) Model-layer code (src/tensor/, src/core/,
//                           src/nn/, src/data/, src/models/, src/attacks/,
//                           src/defenses/) must not include src/serve/ or
//                           src/obs/ headers directly. (b) Nothing in src/
//                           outside src/serve/ may include src/serve/net/
//                           headers — the wire tier is serve-internal (bench/
//                           tests/examples/tools are consumers and exempt).
//                           (c) Transitively: no src/ file outside src/serve/
//                           may *reach* a src/serve/ header through the
//                           project include graph; the violation is reported
//                           at the first include edge that leads there.
//   stale-suppression       A `// dcn-lint: allow(...)` / `allow-file(...)`
//                           directive that silenced no violation is dead
//                           armor: it documents an exception that no longer
//                           exists (or a typo'd rule name) and hides future
//                           regressions. Reported at the directive's line.
//
// Suppressions: a comment whose text starts with the tag — `// dcn-lint:
// allow(rule)` or `allow(rule1,rule2)` — trailing a statement silences those
// rules on that line; the same comment alone on its own line silences them
// on the line below (so the directive can sit above the offending
// statement, with the rationale alongside). `allow-file(rule)` silences a
// rule for the whole file; reserve it for files whose purpose is the
// exception. Prose that merely mentions the tag mid-comment (like this
// header) is not a directive: the tag must open the comment.
//
// The engine never reads the filesystem: callers hand it (path, content)
// pairs, which is what makes it unit-testable (tests/test_lint_rules.cpp)
// and trivially driven by the dcn_lint binary.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace dcn::lint {

/// Every rule id the engine can emit, in stable order. docs_check.sh greps
/// this list against the rule table in docs/OPERATIONS.md ("Analysis deep
/// pass"), so adding a rule here without documenting it fails the suite.
inline constexpr std::string_view kRuleIds[] = {
    "entropy",
    "raw-thread",
    "float-accumulator",
    "no-cout",
    "pragma-once",
    "using-namespace-header",
    "mutex-in-parallel-for",
    "simd",
    "rng-contract",
    "mutex-hygiene",
    "include-layering",
    "stale-suppression",
};

struct Violation {
  std::string rule;
  std::string path;
  std::size_t line = 0;  // 1-based
  std::string message;
};

/// One (path, content) pair handed to check_tree. Paths must be
/// repo-relative with forward slashes (e.g. "src/core/dcn.cpp") — rule
/// scoping and include resolution key off them.
struct SourceFile {
  std::string path;
  std::string content;
};

namespace detail {

inline bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// One parsed `allow(...)` / `allow-file(...)` directive. `used` is set by
/// the suppression pass; entries left unused feed the stale-suppression
/// audit.
struct AllowEntry {
  std::string rule;
  std::size_t covered_line = 0;    // line the allow applies to (0: file-wide)
  std::size_t directive_line = 0;  // line the comment itself starts on
  bool file_wide = false;
  bool used = false;
};

/// The comment/literal-blanked view of a file plus its suppression table.
struct Prepared {
  std::string code;  // same length/lines as the input; comments and the
                     // bodies of string/char literals replaced by spaces
  std::vector<AllowEntry> allows;
};

/// Record `dcn-lint: allow(...)` / `allow-file(...)` directives. Only a
/// comment that *opens* with the tag is a directive — prose mentioning the
/// tag mid-sentence (docs, rule tables) never registers. A trailing comment
/// covers its own line; a comment alone on its line covers the next line
/// instead (set `covers_next`), so the directive can sit above the
/// offending statement.
inline void parse_directives(std::string_view comment, std::size_t line,
                             bool covers_next, Prepared& out) {
  static constexpr std::string_view kTag = "dcn-lint:";
  // Strip the comment opener (// or /*) and leading whitespace; the tag must
  // come first.
  std::string_view text = comment;
  if (text.size() >= 2 && (text.substr(0, 2) == "//" ||
                           text.substr(0, 2) == "/*")) {
    text.remove_prefix(2);
  }
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  if (text.substr(0, kTag.size()) != kTag) return;
  std::string_view rest = text.substr(kTag.size());
  while (!rest.empty() && (rest.front() == ' ' || rest.front() == '\t')) {
    rest.remove_prefix(1);
  }
  const bool file_wide = rest.substr(0, 11) == "allow-file(";
  if (!file_wide && rest.substr(0, 6) != "allow(") return;
  const std::size_t open = rest.find('(');
  const std::size_t close = rest.find(')', open);
  if (close == std::string_view::npos) return;
  std::string_view list = rest.substr(open + 1, close - open - 1);
  while (!list.empty()) {
    const std::size_t comma = list.find(',');
    std::string_view item = list.substr(0, comma);
    while (!item.empty() && (item.front() == ' ' || item.front() == '\t')) {
      item.remove_prefix(1);
    }
    while (!item.empty() && (item.back() == ' ' || item.back() == '\t')) {
      item.remove_suffix(1);
    }
    if (!item.empty()) {
      AllowEntry entry;
      entry.rule = std::string(item);
      entry.file_wide = file_wide;
      entry.directive_line = line;
      entry.covered_line = file_wide ? 0 : (covers_next ? line + 1 : line);
      out.allows.push_back(std::move(entry));
    }
    if (comma == std::string_view::npos) break;
    list.remove_prefix(comma + 1);
  }
}

/// Blank comments and string/char-literal bodies (newlines survive so line
/// numbers stay true), collecting suppression directives along the way.
/// Handles //, /* */, "...", '...', and R"delim(...)delim".
inline Prepared prepare(std::string_view content) {
  Prepared out;
  out.code.assign(content.size(), ' ');
  std::size_t line = 1;
  std::size_t i = 0;
  const std::size_t n = content.size();
  auto copy = [&](std::size_t at) { out.code[at] = content[at]; };
  // True when nothing but whitespace precedes offset `at` on its line — a
  // comment starting there is standalone and its allow() covers the line
  // below it rather than its own.
  auto standalone = [&](std::size_t at) {
    while (at > 0 && content[at - 1] != '\n') {
      const char p = content[--at];
      if (p != ' ' && p != '\t') return false;
    }
    return true;
  };
  while (i < n) {
    const char c = content[i];
    if (c == '\n') {
      out.code[i] = '\n';
      ++line;
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && content[i + 1] == '/') {
      const std::size_t start = i;
      while (i < n && content[i] != '\n') ++i;
      parse_directives(content.substr(start, i - start), line,
                       standalone(start), out);
      continue;
    }
    if (c == '/' && i + 1 < n && content[i + 1] == '*') {
      const std::size_t start = i;
      const std::size_t start_line = line;
      const bool alone = standalone(start);
      i += 2;
      while (i + 1 < n && !(content[i] == '*' && content[i + 1] == '/')) {
        if (content[i] == '\n') {
          out.code[i] = '\n';
          ++line;
        }
        ++i;
      }
      i = std::min(n, i + 2);
      // A standalone block comment covers the line after its last line.
      parse_directives(content.substr(start, i - start),
                       alone ? line : start_line, alone, out);
      continue;
    }
    if (c == 'R' && i + 1 < n && content[i + 1] == '"' &&
        (i == 0 || !ident_char(content[i - 1]))) {
      std::size_t j = i + 2;
      while (j < n && content[j] != '(') ++j;
      const std::string closer =
          ")" + std::string(content.substr(i + 2, j - (i + 2))) + "\"";
      const std::size_t end = content.find(closer, j);
      const std::size_t stop = end == std::string_view::npos
                                   ? n
                                   : end + closer.size();
      for (; i < stop; ++i) {
        if (content[i] == '\n') {
          out.code[i] = '\n';
          ++line;
        }
      }
      continue;
    }
    // A ' directly after a digit/identifier char is a C++14 digit separator
    // (60'000'000), not a char literal — leave it in place.
    if (c == '\'' && i > 0 && ident_char(content[i - 1])) {
      copy(i);
      ++i;
      continue;
    }
    if (c == '"' || c == '\'') {
      copy(i);  // keep the delimiter so token boundaries survive
      const char quote = c;
      ++i;
      while (i < n && content[i] != quote) {
        if (content[i] == '\\' && i + 1 < n) ++i;
        if (content[i] == '\n') {
          out.code[i] = '\n';
          ++line;
        }
        ++i;
      }
      if (i < n) copy(i++);
      continue;
    }
    copy(i);
    ++i;
  }
  return out;
}

/// 1-based line number of offset `at` in `code`.
inline std::size_t line_of(std::string_view code, std::size_t at) {
  return 1 + static_cast<std::size_t>(
                 std::count(code.begin(), code.begin() + static_cast<long>(at),
                            '\n'));
}

/// Find the next whole-identifier occurrence of `ident` at or after `from`.
inline std::size_t find_ident(std::string_view code, std::string_view ident,
                              std::size_t from) {
  while (true) {
    const std::size_t at = code.find(ident, from);
    if (at == std::string_view::npos) return std::string_view::npos;
    const bool left_ok = at == 0 || !ident_char(code[at - 1]);
    const std::size_t end = at + ident.size();
    const bool right_ok = end >= code.size() || !ident_char(code[end]);
    if (left_ok && right_ok) return at;
    from = at + 1;
  }
}

/// First non-whitespace offset at or after `from` (npos at end).
inline std::size_t skip_ws(std::string_view code, std::size_t from) {
  while (from < code.size() &&
         std::isspace(static_cast<unsigned char>(code[from])) != 0) {
    ++from;
  }
  return from < code.size() ? from : std::string_view::npos;
}

/// True when the identifier at `at` is immediately qualified by `std::`.
inline bool std_qualified(std::string_view code, std::size_t at) {
  std::size_t j = at;
  while (j > 0 &&
         std::isspace(static_cast<unsigned char>(code[j - 1])) != 0) {
    --j;
  }
  if (j < 2 || code[j - 1] != ':' || code[j - 2] != ':') return false;
  j -= 2;
  while (j > 0 &&
         std::isspace(static_cast<unsigned char>(code[j - 1])) != 0) {
    --j;
  }
  return j >= 3 && code.substr(j - 3, 3) == "std" &&
         (j == 3 || !ident_char(code[j - 4]));
}

/// Offset just past the matching ')' for the '(' at `open` (npos if
/// unbalanced). Works on blanked code, so literals cannot confuse depth.
inline std::size_t match_paren(std::string_view code, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (code[i] == '(') ++depth;
    if (code[i] == ')' && --depth == 0) return i + 1;
  }
  return std::string_view::npos;
}

/// Offset of the '}' that closes the block enclosing `from` — i.e. scan
/// forward until brace depth goes negative. Returns code.size() when the
/// block runs to EOF (truncated input). Works on blanked code.
inline std::size_t enclosing_block_end(std::string_view code,
                                       std::size_t from) {
  int depth = 0;
  for (std::size_t i = from; i < code.size(); ++i) {
    if (code[i] == '{') ++depth;
    if (code[i] == '}' && --depth < 0) return i;
  }
  return code.size();
}

}  // namespace detail

/// Where a file sits in the tree decides which rules apply to it.
struct FileScope {
  bool in_src = false;        // src/** — library code
  bool threading_ok = false;  // src/runtime/** or src/serve/**
  bool monotonic_ok = false;  // layers allowed to read steady_clock
  bool is_header = false;     // *.hpp
  bool gemm_kernel = false;   // the fixed double-accumulation file set
  bool in_simd = false;       // src/tensor/simd/** — intrinsics allowed
  bool in_serve = false;      // src/serve/** — may include serve/net
  bool model_layer = false;   // the layers that must stay serve/obs-free
  bool net_hot_path = false;  // src/serve/net/** — mutex-hygiene scope
  bool seqlock_scope = false; // src/serve/** or src/obs/** — seqlock audit
  bool rng_mint_ok = false;   // may construct Rng streams
  bool rng_reposition_ok = false;  // may call Rng::discard/set_state
  bool id_mint_ok = false;    // may call mint_trace_context/mint_span_id
};

inline FileScope classify(std::string_view path) {
  FileScope s;
  auto has_prefix = [&](std::string_view p) {
    return path.substr(0, p.size()) == p;
  };
  s.in_src = has_prefix("src/");
  s.threading_ok = has_prefix("src/runtime/") || has_prefix("src/serve/");
  // Timing layers: the tracer/registry, the pool gauges and kernel counters,
  // serving latency metrics, and the bench timer. Everything else in src/
  // computes on tensors and has no business reading any clock.
  s.monotonic_ok = has_prefix("src/obs/") || has_prefix("src/runtime/") ||
                   has_prefix("src/serve/") || has_prefix("src/eval/");
  s.is_header = path.size() >= 4 &&
                path.substr(path.size() - 4) == ".hpp";
  s.in_simd = has_prefix("src/tensor/simd/");
  s.in_serve = has_prefix("src/serve/");
  s.net_hot_path = has_prefix("src/serve/net/");
  s.seqlock_scope = has_prefix("src/serve/") || has_prefix("src/obs/");
  // Model-layer code computes on tensors; sockets (serve) and the
  // instrumentation layer (obs) must not leak into it. runtime/ is the one
  // sanctioned infrastructure dependency (parallel_for, kernel counters).
  s.model_layer = has_prefix("src/tensor/") || has_prefix("src/core/") ||
                  has_prefix("src/nn/") || has_prefix("src/data/") ||
                  has_prefix("src/models/") || has_prefix("src/attacks/") ||
                  has_prefix("src/defenses/");
  // RNG contract: streams are minted where seeds live — model/data/attack
  // construction — never in the infrastructure layers, whose replicas must
  // stay deterministic copies of each other.
  s.rng_mint_ok = has_prefix("src/tensor/") || has_prefix("src/data/") ||
                  has_prefix("src/models/") || has_prefix("src/nn/") ||
                  has_prefix("src/attacks/") || has_prefix("src/defenses/");
  static constexpr std::string_view kRngCoreFiles[] = {
      "src/core/corrector.cpp",      "src/core/correctors_alt.cpp",
      "src/core/detector.cpp",       "src/core/detector_training.cpp",
      "src/core/logit_corrector.cpp"};
  for (std::string_view f : kRngCoreFiles) {
    if (path == f) s.rng_mint_ok = true;
  }
  // The blessed trace/span id generator: the one infrastructure file that
  // may own an Rng, because its stream is never consumed by any model path
  // (docs/OPERATIONS.md "Tracing a request").
  if (path == "src/obs/trace_id.cpp") s.rng_mint_ok = true;
  // The id-minting API itself is request-plumbing: legal in the
  // observability and serving tiers, never in model code.
  s.id_mint_ok = has_prefix("src/obs/") || has_prefix("src/serve/");
  // Stream repositioning bypasses the segment contract unless it happens in
  // the segment machinery itself.
  static constexpr std::string_view kRngRepositionFiles[] = {
      "src/tensor/random.cpp", "src/tensor/random.hpp",
      "src/tensor/rng_skip.cpp", "src/tensor/rng_skip.hpp",
      "src/core/corrector.cpp"};
  for (std::string_view f : kRngRepositionFiles) {
    if (path == f) s.rng_reposition_ok = true;
  }
  // The kernels bound by the double-accumulation determinism contract
  // (ROADMAP "SIMD kernels"; DESIGN.md determinism notes).
  static constexpr std::string_view kGemmFiles[] = {
      "src/tensor/ops.cpp",  "src/tensor/conv.cpp",   "src/tensor/tensor.cpp",
      "src/nn/dense.cpp",    "src/nn/conv2d.cpp",     "src/nn/avgpool.cpp",
      "src/nn/batchnorm.cpp",
      "src/tensor/simd/gemm_generic.cpp",
      "src/tensor/simd/gemm_avx2.cpp"};
  for (std::string_view f : kGemmFiles) {
    if (path == f) s.gemm_kernel = true;
  }
  return s;
}

/// One project `#include "..."` edge, with the line it sits on.
struct IncludeEdge {
  std::string target;  // verbatim include string, e.g. "serve/net/protocol.hpp"
  std::size_t line = 0;
};

/// The per-file model every rule runs against: classification, the blanked
/// code view, the suppression table, and the project include edges.
struct FileModel {
  std::string path;
  FileScope scope;
  detail::Prepared prep;
  std::vector<IncludeEdge> includes;
  const std::string* content = nullptr;  // original text (annotation checks)
};

inline FileModel build_model(const SourceFile& file) {
  FileModel m;
  m.path = file.path;
  m.scope = classify(file.path);
  m.prep = detail::prepare(file.content);
  m.content = &file.content;
  // Quoted includes only: system headers cannot be project layering edges.
  // Scanning the *original* text (not the blanked view) would see includes
  // in comments; the blanked view blanks the quoted string body, so extract
  // from the original but require the `#include` to survive blanking (i.e.
  // not be inside a comment).
  const std::string_view code = m.prep.code;
  const std::string_view raw = file.content;
  std::size_t at = 0;
  while ((at = code.find("#include", at)) != std::string_view::npos) {
    const std::size_t q1 = raw.find('"', at + 8);
    const std::size_t line_end = raw.find('\n', at);
    if (q1 != std::string_view::npos &&
        (line_end == std::string_view::npos || q1 < line_end)) {
      const std::size_t q2 = raw.find('"', q1 + 1);
      if (q2 != std::string_view::npos &&
          (line_end == std::string_view::npos || q2 < line_end)) {
        m.includes.push_back(IncludeEdge{
            std::string(raw.substr(q1 + 1, q2 - q1 - 1)),
            detail::line_of(code, at)});
      }
    }
    at += 8;
  }
  return m;
}

namespace detail {

/// Resolve an include target to a path in the model set, mirroring the
/// build's include directories (src/ is on the include path; tests reach
/// tools/ via ../). Returns nullptr when the target is not in the set
/// (system header, generated file, or a file outside the scan).
inline const FileModel* resolve_include(
    const std::map<std::string, const FileModel*>& by_path,
    const FileModel& from, const std::string& target) {
  // 1. As written, relative to repo root (e.g. tests including "fixtures.hpp"
  //    resolves below via the dirname branch instead).
  auto it = by_path.find(target);
  if (it != by_path.end()) return it->second;
  // 2. Relative to src/ (the library's include root).
  it = by_path.find("src/" + target);
  if (it != by_path.end()) return it->second;
  // 3. Relative to the including file's directory, normalizing "..".
  const std::size_t slash = from.path.rfind('/');
  std::string base = slash == std::string::npos
                         ? std::string()
                         : from.path.substr(0, slash + 1);
  std::string joined = base + target;
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= joined.size()) {
    const std::size_t end = joined.find('/', start);
    const std::string part =
        joined.substr(start, end == std::string::npos ? std::string::npos
                                                      : end - start);
    if (part == "..") {
      if (!parts.empty()) parts.pop_back();
    } else if (!part.empty() && part != ".") {
      parts.push_back(part);
    }
    if (end == std::string::npos) break;
    start = end + 1;
  }
  std::string normalized;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) normalized += '/';
    normalized += parts[i];
  }
  it = by_path.find(normalized);
  return it == by_path.end() ? nullptr : it->second;
}

/// True when `model` (or anything it transitively includes within the set)
/// is a src/serve/ file. Memoized per check_tree run.
inline bool reaches_serve(const FileModel& model,
                          const std::map<std::string, const FileModel*>& by_path,
                          std::map<const FileModel*, int>& memo) {
  const auto it = memo.find(&model);
  if (it != memo.end()) return it->second == 1;
  memo[&model] = -1;  // in progress: include cycles resolve to "no"
  bool hit = model.path.rfind("src/serve/", 0) == 0;
  if (!hit) {
    for (const IncludeEdge& edge : model.includes) {
      const FileModel* next = resolve_include(by_path, model, edge.target);
      if (next != nullptr && reaches_serve(*next, by_path, memo)) {
        hit = true;
        break;
      }
    }
  }
  memo[&model] = hit ? 1 : 0;
  return hit;
}

}  // namespace detail

namespace detail {

/// Run every per-file rule over one model, appending raw (pre-suppression)
/// violations.
inline void check_file_rules(const FileModel& model,
                             std::vector<Violation>& raw) {
  const FileScope& scope = model.scope;
  const std::string_view code = model.prep.code;
  const std::string_view path = model.path;

  auto add = [&](std::string rule, std::size_t at, std::string message) {
    raw.push_back(Violation{std::move(rule), std::string(path),
                            line_of(code, at), std::move(message)});
  };

  // ---- entropy (library code only) ----------------------------------------
  if (scope.in_src) {
    for (std::string_view fn : {"rand", "srand", "rand_r", "drand48", "time"}) {
      std::size_t at = 0;
      while ((at = find_ident(code, fn, at)) != std::string_view::npos) {
        const std::size_t after = skip_ws(code, at + fn.size());
        if (after != std::string_view::npos && code[after] == '(') {
          add("entropy", at,
              "'" + std::string(fn) +
                  "()' is a non-deterministic entropy source; library "
                  "randomness must come from a seeded dcn Rng stream");
        }
        at += fn.size();
      }
    }
    std::size_t at = 0;
    while ((at = find_ident(code, "random_device", at)) !=
           std::string_view::npos) {
      add("entropy", at,
          "std::random_device breaks the determinism contract; seed an Rng "
          "stream explicitly");
      at += 1;
    }
    // Clock discipline: wall clocks (and the unspecified-alias
    // high_resolution_clock) are banned in all library code; the monotonic
    // steady_clock is confined to the timing layers (obs/runtime/serve/eval).
    for (std::string_view clk : {"system_clock", "high_resolution_clock"}) {
      at = 0;
      while ((at = find_ident(code, clk, at)) != std::string_view::npos) {
        add("entropy", at,
            "std::chrono::" + std::string(clk) +
                " in library code; wall-clock time is ambient state — use "
                "steady_clock in a timing layer or pass timestamps in");
        at += clk.size();
      }
    }
    if (!scope.monotonic_ok) {
      at = 0;
      while ((at = find_ident(code, "steady_clock", at)) !=
             std::string_view::npos) {
        add("entropy", at,
            "steady_clock outside the timing layers (src/obs/, src/runtime/, "
            "src/serve/, src/eval/); model code must not read clocks");
        at += 12;
      }
    }
  }

  // ---- raw-thread (everywhere but runtime/ and serve/) --------------------
  if (!scope.threading_ok) {
    for (std::string_view kw : {"thread", "jthread", "async"}) {
      std::size_t at = 0;
      while ((at = find_ident(code, kw, at)) != std::string_view::npos) {
        const std::size_t next = at + kw.size();
        if (std_qualified(code, at)) {
          // std::thread::<member> is a type-level query (hardware_concurrency,
          // id, ...) — no thread is created, so it stays legal.
          const std::size_t after = skip_ws(code, next);
          const bool member_access =
              kw != "async" && after != std::string_view::npos &&
              after + 1 < code.size() && code[after] == ':' &&
              code[after + 1] == ':';
          if (!member_access) {
            add("raw-thread", at,
                "std::" + std::string(kw) +
                    " outside src/runtime//src/serve/; compute belongs on "
                    "runtime::parallel_for");
          }
        }
        at = next;
      }
    }
    std::size_t at = 0;
    while ((at = find_ident(code, "new", at)) != std::string_view::npos) {
      // Skip the type name (identifiers, ::, <...>) after `new`; a `[` next
      // means array new.
      std::size_t j = at + 3;
      int angle = 0;
      while (j < code.size()) {
        const char c = code[j];
        if (c == '<') ++angle;
        if (c == '>' && angle > 0) --angle;
        if (angle == 0 && !ident_char(c) && c != ':' && c != ' ' &&
            c != '\n' && c != '\t' && c != '<' && c != '>') {
          break;
        }
        ++j;
      }
      if (j < code.size() && code[j] == '[') {
        add("raw-thread", at,
            "raw new[] outside src/runtime//src/serve/; use std::vector or "
            "Tensor storage");
      }
      at += 3;
    }
    at = 0;
    while ((at = find_ident(code, "delete", at)) != std::string_view::npos) {
      const std::size_t after = skip_ws(code, at + 6);
      if (after != std::string_view::npos && code[after] == '[') {
        add("raw-thread", at,
            "raw delete[] outside src/runtime//src/serve/; use owning "
            "containers");
      }
      at += 6;
    }
  }

  // ---- float-accumulator (GEMM/conv kernel files) -------------------------
  if (scope.gemm_kernel) {
    std::size_t at = 0;
    while ((at = find_ident(code, "float", at)) != std::string_view::npos) {
      const std::size_t start = at;
      at += 5;
      std::size_t j = skip_ws(code, at);
      if (j == std::string_view::npos || !ident_char(code[j])) continue;
      const std::size_t name_begin = j;
      while (j < code.size() && ident_char(code[j])) ++j;
      const std::string name(code.substr(name_begin, j - name_begin));
      const std::size_t eq = skip_ws(code, j);
      if (eq == std::string_view::npos || code[eq] != '=' ||
          (eq + 1 < code.size() && code[eq + 1] == '=')) {
        continue;
      }
      // A float that later receives `+=` is a single-precision accumulator.
      std::size_t use = j;
      while ((use = find_ident(code, name, use)) != std::string_view::npos) {
        const std::size_t op = skip_ws(code, use + name.size());
        if (op != std::string_view::npos && op + 1 < code.size() &&
            code[op] == '+' && code[op + 1] == '=') {
          add("float-accumulator", start,
              "float accumulator '" + name +
                  "' in a GEMM/conv kernel; the determinism contract "
                  "requires double accumulation in a fixed order");
          break;
        }
        use += name.size();
      }
    }
  }

  // ---- no-cout (library code only) ----------------------------------------
  if (scope.in_src) {
    std::size_t at = 0;
    while ((at = find_ident(code, "cout", at)) != std::string_view::npos) {
      if (std_qualified(code, at)) {
        add("no-cout", at,
            "std::cout in library code; return render()/JSON and let the "
            "caller own the stream");
      }
      at += 4;
    }
    for (std::string_view fn : {"printf", "puts", "putchar"}) {
      at = 0;
      while ((at = find_ident(code, fn, at)) != std::string_view::npos) {
        const std::size_t after = skip_ws(code, at + fn.size());
        if (after != std::string_view::npos && code[after] == '(') {
          add("no-cout", at,
              "'" + std::string(fn) +
                  "' in library code; output belongs to callers");
        }
        at += fn.size();
      }
    }
  }

  // ---- header hygiene -----------------------------------------------------
  if (scope.is_header) {
    if (code.find("#pragma once") == std::string_view::npos) {
      raw.push_back(Violation{"pragma-once", std::string(path), 1,
                              "header is missing #pragma once"});
    }
    std::size_t at = 0;
    while ((at = find_ident(code, "using", at)) != std::string_view::npos) {
      const std::size_t after = skip_ws(code, at + 5);
      if (after != std::string_view::npos &&
          find_ident(code, "namespace", after) == after) {
        add("using-namespace-header", at,
            "'using namespace' at header scope leaks into every includer");
      }
      at += 5;
    }
  }

  // ---- mutex-in-parallel-for ----------------------------------------------
  {
    std::size_t at = 0;
    while ((at = find_ident(code, "parallel_for", at)) !=
           std::string_view::npos) {
      const std::size_t open = skip_ws(code, at + 12);
      if (open == std::string_view::npos || code[open] != '(') {
        at += 12;
        continue;
      }
      const std::size_t close = match_paren(code, open);
      const std::size_t end =
          close == std::string_view::npos ? code.size() : close;
      const std::string_view span = code.substr(open, end - open);
      for (std::string_view lock :
           {"lock_guard", "unique_lock", "scoped_lock", "mutex"}) {
        const std::size_t hit = find_ident(span, lock, 0);
        if (hit != std::string_view::npos) {
          add("mutex-in-parallel-for", open + hit,
              "'" + std::string(lock) +
                  "' inside a parallel_for call serializes the pool; use "
                  "per-chunk buffers and merge sequentially");
        }
      }
      at = end;
    }
  }

  // ---- simd (intrinsics confined to src/tensor/simd/) ---------------------
  if (!scope.in_simd) {
    // x86: every intrinsic identifier starts _mm (_mm_, _mm256_, _mm512_).
    std::size_t at = 0;
    while ((at = code.find("_mm", at)) != std::string_view::npos) {
      const bool left_ok = at == 0 || !ident_char(code[at - 1]);
      if (left_ok) {
        std::size_t end = at + 3;
        while (end < code.size() && ident_char(code[end])) ++end;
        add("simd", at,
            "raw SIMD intrinsic '" + std::string(code.substr(at, end - at)) +
                "' outside src/tensor/simd/; microkernels live behind the "
                "dispatch fence there");
      }
      at += 3;
    }
    // NEON: the common intrinsic families are prefix-recognizable.
    for (std::string_view prefix :
         {"vld1", "vst1", "vfmaq", "vmlaq", "vdupq", "vaddq", "vmulq"}) {
      at = 0;
      while ((at = code.find(prefix, at)) != std::string_view::npos) {
        const bool left_ok = at == 0 || !ident_char(code[at - 1]);
        const std::size_t end = at + prefix.size();
        if (left_ok && end < code.size() &&
            (code[end] == '_' || code[end] == 'q')) {
          add("simd", at,
              "raw NEON intrinsic outside src/tensor/simd/; microkernels "
              "live behind the dispatch fence there");
        }
        at = end;
      }
    }
    for (std::string_view header : {"immintrin.h", "arm_neon.h"}) {
      at = 0;
      while ((at = code.find(header, at)) != std::string_view::npos) {
        add("simd", at,
            "#include <" + std::string(header) +
                "> outside src/tensor/simd/; intrinsics are confined to the "
                "dispatch-fenced microkernel directory");
        at += header.size();
      }
    }
  }

  // ---- rng-contract (stream minting and repositioning) --------------------
  if (scope.in_src) {
    if (!scope.rng_mint_ok) {
      // `Rng x(...)`, `Rng x{...}`, or a bare `Rng(...)` temporary all mint
      // a stream. `Rng&`/`Rng*` parameters and bare member declarations
      // (`Rng rng_;`) do not.
      std::size_t at = 0;
      while ((at = find_ident(code, "Rng", at)) != std::string_view::npos) {
        std::size_t j = skip_ws(code, at + 3);
        bool constructs = false;
        if (j != std::string_view::npos) {
          if (code[j] == '(' || code[j] == '{') {
            constructs = true;  // temporary / direct-init
          } else if (ident_char(code[j])) {
            std::size_t k = j;
            while (k < code.size() && ident_char(code[k])) ++k;
            const std::size_t after = skip_ws(code, k);
            constructs = after != std::string_view::npos &&
                         (code[after] == '(' || code[after] == '{');
          }
        }
        if (constructs) {
          add("rng-contract", at,
              "Rng stream minted outside the blessed model/data layers; "
              "infrastructure must consume streams it is handed (fork()/"
              "segment APIs), never create them — see tensor/rng_skip.hpp");
        }
        at += 3;
      }
    }
    if (!scope.id_mint_ok) {
      for (std::string_view fn : {"mint_trace_context", "mint_span_id"}) {
        std::size_t at = 0;
        while ((at = find_ident(code, fn, at)) != std::string_view::npos) {
          const std::size_t after = skip_ws(code, at + fn.size());
          if (after != std::string_view::npos && code[after] == '(') {
            add("rng-contract", at,
                "'" + std::string(fn) +
                    "' outside src/obs//src/serve/; trace ids are "
                    "request-plumbing, and model code must not mint them");
          }
          at += fn.size();
        }
      }
    }
    if (!scope.rng_reposition_ok) {
      for (std::string_view fn : {"discard", "set_state"}) {
        std::size_t at = 0;
        while ((at = find_ident(code, fn, at)) != std::string_view::npos) {
          // Only method calls reposition a stream: require `.fn(`/`->fn(`.
          const std::size_t after = skip_ws(code, at + fn.size());
          const bool is_call =
              after != std::string_view::npos && code[after] == '(';
          const bool is_member =
              at > 0 && (code[at - 1] == '.' ||
                         (at > 1 && code[at - 2] == '-' &&
                          code[at - 1] == '>'));
          if (is_call && is_member) {
            add("rng-contract", at,
                "Rng::" + std::string(fn) +
                    " outside the segment machinery (src/tensor/random, "
                    "src/tensor/rng_skip, src/core/corrector.cpp); use the "
                    "skip/segment APIs so the stream layout survives");
          }
          at += fn.size();
        }
      }
    }
  }

  // ---- mutex-hygiene (serving hot path + seqlock annotation) --------------
  if (scope.net_hot_path) {
    // Blocking identifiers that must never run under a held lock: socket IO,
    // readiness waits, sleeps, and joins. cv.wait is deliberately absent —
    // waiting on a condition variable releases the lock.
    static constexpr std::string_view kBlocking[] = {
        "send",      "recv",       "accept",     "accept4",   "connect",
        "poll",      "epoll_wait", "sleep_for",  "sleep_until", "join",
        "write",     "read",       "send_frame", "write_all", "read_exact",
        "recv_frame"};
    for (std::string_view lock :
         {"lock_guard", "unique_lock", "scoped_lock"}) {
      std::size_t at = 0;
      while ((at = find_ident(code, lock, at)) != std::string_view::npos) {
        const std::size_t span_end = enclosing_block_end(code, at);
        const std::string_view span = code.substr(at, span_end - at);
        for (std::string_view fn : kBlocking) {
          std::size_t hit = 0;
          while ((hit = find_ident(span, fn, hit)) !=
                 std::string_view::npos) {
            const std::size_t after = skip_ws(span, hit + fn.size());
            if (after != std::string_view::npos && span[after] == '(') {
              add("mutex-hygiene", at + hit,
                  "blocking call '" + std::string(fn) +
                      "' inside a " + std::string(lock) +
                      " scope on the serving hot path; drop the lock before "
                      "anything that can stall (IO, sleeps, joins)");
            }
            hit += fn.size();
          }
        }
        at += lock.size();
      }
    }
  }
  if (scope.seqlock_scope && model.content != nullptr) {
    // A version-counter atomic is only safe under the seqlock protocol; the
    // declaration must say so where the field lives.
    std::size_t at = 0;
    while ((at = find_ident(code, "atomic", at)) != std::string_view::npos) {
      // `std::atomic<...> name` — find the declared name after the closing
      // angle bracket.
      std::size_t j = at + 6;
      if (j < code.size() && code[j] == '<') {
        int depth = 0;
        while (j < code.size()) {
          if (code[j] == '<') ++depth;
          if (code[j] == '>' && --depth == 0) {
            ++j;
            break;
          }
          ++j;
        }
        const std::size_t name_at = skip_ws(code, j);
        if (name_at != std::string_view::npos && ident_char(code[name_at])) {
          std::size_t k = name_at;
          while (k < code.size() && ident_char(code[k])) ++k;
          const std::string name(code.substr(name_at, k - name_at));
          if (name.find("version") != std::string::npos ||
              name.find("seq") != std::string::npos) {
            const std::size_t decl_line = line_of(code, at);
            // Look for the word "seqlock" in the original text of the
            // declaration line or the 8 lines above (comments were blanked
            // from `code`, so search the raw content window).
            const std::string& raw = *model.content;
            std::size_t win_start = 0;
            std::size_t seen = 0;
            std::size_t pos = 0;
            std::vector<std::size_t> line_starts{0};
            while ((pos = raw.find('\n', pos)) != std::string::npos) {
              line_starts.push_back(++pos);
            }
            const std::size_t first_line =
                decl_line > 8 ? decl_line - 8 : 1;
            win_start = line_starts[first_line - 1];
            const std::size_t win_end = decl_line < line_starts.size()
                                            ? line_starts[decl_line]
                                            : raw.size();
            (void)seen;
            if (raw.substr(win_start, win_end - win_start).find("seqlock") ==
                std::string::npos) {
              add("mutex-hygiene", at,
                  "atomic '" + name +
                      "' looks like a seqlock version counter but carries no "
                      "'seqlock' annotation comment on or above its "
                      "declaration; document the torn-read protocol at the "
                      "field");
            }
          }
        }
      }
      at += 6;
    }
  }
}

}  // namespace detail

/// Run every applicable rule — per-file and cross-file — over a set of
/// files, apply suppressions, audit for stale suppressions, and return the
/// surviving violations sorted by (path, line, rule).
inline std::vector<Violation> check_tree(std::vector<SourceFile> const& files) {
  using namespace detail;
  std::vector<FileModel> models;
  models.reserve(files.size());
  for (const SourceFile& f : files) models.push_back(build_model(f));

  std::map<std::string, const FileModel*> by_path;
  for (const FileModel& m : models) by_path[m.path] = &m;

  std::vector<Violation> raw;
  for (const FileModel& m : models) check_file_rules(m, raw);

  // ---- include-layering (cross-file) ---------------------------------------
  std::map<const FileModel*, int> serve_memo;
  for (const FileModel& m : models) {
    if (!m.scope.in_src) continue;
    for (const IncludeEdge& edge : m.includes) {
      const FileModel* target = resolve_include(by_path, m, edge.target);
      const std::string resolved =
          target != nullptr ? target->path : "src/" + edge.target;
      auto is_under = [&](std::string_view prefix) {
        return resolved.rfind(prefix, 0) == 0;
      };
      if (m.scope.model_layer &&
          (is_under("src/serve/") || is_under("src/obs/"))) {
        raw.push_back(Violation{
            "include-layering", m.path, edge.line,
            "model-layer code includes '" + edge.target +
                "'; src/serve/ and src/obs/ must not leak into the layers "
                "that compute on tensors"});
        continue;
      }
      if (!m.scope.in_serve && is_under("src/serve/net/")) {
        raw.push_back(Violation{
            "include-layering", m.path, edge.line,
            "'" + edge.target +
                "' included outside src/serve/; the wire tier is "
                "serve-internal (bench/tests/tools are the consumers)"});
        continue;
      }
      // Transitive: an innocent-looking include that drags the serve tier
      // (sockets, threads) into non-serve library code.
      if (!m.scope.in_serve && target != nullptr &&
          target->path.rfind("src/serve/", 0) != 0 &&
          reaches_serve(*target, by_path, serve_memo)) {
        raw.push_back(Violation{
            "include-layering", m.path, edge.line,
            "'" + edge.target +
                "' transitively includes src/serve/ headers; nothing "
                "outside src/serve/ may reach the serving tier"});
      }
    }
  }

  // ---- apply suppressions --------------------------------------------------
  std::map<std::string, FileModel*> mutable_by_path;
  for (FileModel& m : models) mutable_by_path[m.path] = &m;
  std::vector<Violation> out;
  auto try_suppress = [&](const Violation& v) {
    FileModel* m = mutable_by_path.count(v.path) != 0
                       ? mutable_by_path[v.path]
                       : nullptr;
    if (m == nullptr) return false;
    for (AllowEntry& entry : m->prep.allows) {
      if (entry.rule != v.rule) continue;
      if (entry.file_wide || entry.covered_line == v.line) {
        entry.used = true;
        return true;
      }
    }
    return false;
  };
  for (Violation& v : raw) {
    if (!try_suppress(v)) out.push_back(std::move(v));
  }

  // ---- stale-suppression audit ---------------------------------------------
  // Directives that silenced nothing are dead armor; report them at their
  // own line. A stale-suppression violation is itself suppressible (e.g. an
  // allow kept deliberately for a platform-dependent rule), and an
  // allow(stale-suppression) used that way counts as used.
  std::vector<Violation> stale;
  for (FileModel& m : models) {
    for (const AllowEntry& entry : m.prep.allows) {
      if (entry.used || entry.rule == "stale-suppression") continue;
      stale.push_back(Violation{
          "stale-suppression", m.path, entry.directive_line,
          "allow" + std::string(entry.file_wide ? "-file" : "") + "(" +
              entry.rule + ") suppresses nothing; delete the directive or "
              "fix the rule name"});
    }
  }
  for (Violation& v : stale) {
    if (!try_suppress(v)) out.push_back(std::move(v));
  }
  // An allow(stale-suppression) that itself suppressed nothing is stale too.
  for (FileModel& m : models) {
    for (const AllowEntry& entry : m.prep.allows) {
      if (entry.used || entry.rule != "stale-suppression") continue;
      out.push_back(Violation{
          "stale-suppression", m.path, entry.directive_line,
          "allow(stale-suppression) suppresses nothing; delete the "
          "directive"});
    }
  }

  std::sort(out.begin(), out.end(), [](const Violation& a, const Violation& b) {
    if (a.path != b.path) return a.path < b.path;
    return a.line != b.line ? a.line < b.line : a.rule < b.rule;
  });
  return out;
}

/// Single-file entry point: exactly check_tree on a one-file tree. `path`
/// must be repo-relative with forward slashes — scoping keys off it.
inline std::vector<Violation> check_source(std::string_view path,
                                           std::string_view content) {
  std::vector<SourceFile> one;
  one.push_back(SourceFile{std::string(path), std::string(content)});
  return check_tree(one);
}

}  // namespace dcn::lint
