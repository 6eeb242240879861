#include "relation/format_spec.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "relation/array_views.hpp"
#include "support/error.hpp"

namespace bernoulli::relation {

namespace {

// ---------------------------------------------------------------- levels
// Generic level implementations parameterized by user arrays. These mirror
// the built-in views' levels; the spec's sortedness modifiers choose the
// search method.

class GCompressedLevel final : public IndexLevel {
 public:
  GCompressedLevel(std::span<const index_t> ptr, std::span<const index_t> ind,
                   bool sorted)
      : ptr_(ptr), ind_(ind), sorted_(sorted) {}

  LevelProperties properties() const override {
    return {sorted_, false, sorted_ ? SearchCost::kLog : SearchCost::kLinear};
  }
  void enumerate(index_t parent, const EnumFn& fn) const override {
    const index_t end = ptr_[static_cast<std::size_t>(parent) + 1];
    for (index_t k = ptr_[static_cast<std::size_t>(parent)]; k < end; ++k)
      if (!fn(ind_[static_cast<std::size_t>(k)], k)) return;
  }
  index_t search(index_t parent, index_t index) const override {
    const index_t begin = ptr_[static_cast<std::size_t>(parent)];
    const index_t end = ptr_[static_cast<std::size_t>(parent) + 1];
    if (sorted_) {
      const index_t* lo = ind_.data() + begin;
      const index_t* hi = ind_.data() + end;
      const index_t* it = std::lower_bound(lo, hi, index);
      if (it != hi && *it == index)
        return static_cast<index_t>(it - ind_.data());
      return -1;
    }
    for (index_t k = begin; k < end; ++k)
      if (ind_[static_cast<std::size_t>(k)] == index) return k;
    return -1;
  }
  double expected_size() const override {
    return ptr_.size() > 1 ? static_cast<double>(ind_.size()) /
                                 static_cast<double>(ptr_.size() - 1)
                           : 0.0;
  }
  LevelDescriptor describe() const override {
    LevelDescriptor d;
    d.kind = LevelDescriptor::Kind::kCompressed;
    d.sorted = sorted_;
    d.ptr = ptr_.data();
    d.ptr_len = static_cast<index_t>(ptr_.size());
    d.ind = ind_.data();
    d.ind_len = static_cast<index_t>(ind_.size());
    return d;
  }

 private:
  std::span<const index_t> ptr_;
  std::span<const index_t> ind_;
  bool sorted_;
};

class GListLevel final : public IndexLevel {
 public:
  GListLevel(std::span<const index_t> list, bool sorted)
      : list_(list), sorted_(sorted) {}

  LevelProperties properties() const override {
    return {sorted_, false, sorted_ ? SearchCost::kLog : SearchCost::kLinear};
  }
  void enumerate(index_t, const EnumFn& fn) const override {
    for (std::size_t k = 0; k < list_.size(); ++k)
      if (!fn(list_[k], static_cast<index_t>(k))) return;
  }
  index_t search(index_t, index_t index) const override {
    if (sorted_) {
      auto it = std::lower_bound(list_.begin(), list_.end(), index);
      if (it != list_.end() && *it == index)
        return static_cast<index_t>(it - list_.begin());
      return -1;
    }
    for (std::size_t k = 0; k < list_.size(); ++k)
      if (list_[k] == index) return static_cast<index_t>(k);
    return -1;
  }
  double expected_size() const override {
    return static_cast<double>(list_.size());
  }
  LevelDescriptor describe() const override {
    LevelDescriptor d;
    d.kind = LevelDescriptor::Kind::kList;
    d.sorted = sorted_;
    d.ind = list_.data();
    d.ind_len = static_cast<index_t>(list_.size());
    return d;
  }

 private:
  std::span<const index_t> list_;
  bool sorted_;
};

class GFunctionLevel final : public IndexLevel {
 public:
  explicit GFunctionLevel(std::span<const index_t> map) : map_(map) {}

  LevelProperties properties() const override {
    return {true, false, SearchCost::kConstant};
  }
  void enumerate(index_t parent, const EnumFn& fn) const override {
    fn(map_[static_cast<std::size_t>(parent)], parent);
  }
  index_t search(index_t parent, index_t index) const override {
    return map_[static_cast<std::size_t>(parent)] == index ? parent : -1;
  }
  double expected_size() const override { return 1.0; }
  LevelDescriptor describe() const override {
    LevelDescriptor d;
    d.kind = LevelDescriptor::Kind::kSingleton;
    d.map = map_.data();
    d.map_len = static_cast<index_t>(map_.size());
    return d;
  }

 private:
  std::span<const index_t> map_;
};

// blocked(r=R, c=C, ptr=P, ind=I): BCSR block rows. The parent is a
// SCALAR row index i; block row i/R owns blocks P[i/R] .. P[i/R + 1]);
// block b stores an R x C dense tile at value offset b*R*C, so row i's
// lane of block b contributes C children: idx = I[b]*C + cc at
// pos = b*R*C + (i%R)*C + cc. Fill zeros inside a stored tile ARE
// enumerated — that is the format's bargain for register-blocked drains.
class GBlockedLevel final : public IndexLevel {
 public:
  GBlockedLevel(std::span<const index_t> ptr, std::span<const index_t> ind,
                index_t r, index_t c, bool sorted)
      : ptr_(ptr), ind_(ind), r_(r), c_(c), sorted_(sorted) {}

  LevelProperties properties() const override {
    return {sorted_, false, sorted_ ? SearchCost::kLog : SearchCost::kLinear};
  }
  void enumerate(index_t parent, const EnumFn& fn) const override {
    const index_t br = parent / r_;
    const index_t rofs = (parent % r_) * c_;
    const index_t bsz = r_ * c_;
    const index_t end = ptr_[static_cast<std::size_t>(br) + 1];
    for (index_t b = ptr_[static_cast<std::size_t>(br)]; b < end; ++b) {
      const index_t jb = ind_[static_cast<std::size_t>(b)] * c_;
      const index_t pb = b * bsz + rofs;
      for (index_t cc = 0; cc < c_; ++cc)
        if (!fn(jb + cc, pb + cc)) return;
    }
  }
  index_t search(index_t parent, index_t index) const override {
    if (index < 0) return -1;
    const index_t br = parent / r_;
    const index_t jb = index / c_;
    const index_t cc = index % c_;
    const index_t lo = ptr_[static_cast<std::size_t>(br)];
    const index_t hi = ptr_[static_cast<std::size_t>(br) + 1];
    auto hit = [&](index_t b) {
      return b * r_ * c_ + (parent % r_) * c_ + cc;
    };
    if (sorted_) {
      const index_t* it =
          std::lower_bound(ind_.data() + lo, ind_.data() + hi, jb);
      if (it != ind_.data() + hi && *it == jb)
        return hit(static_cast<index_t>(it - ind_.data()));
      return -1;
    }
    for (index_t b = lo; b < hi; ++b)
      if (ind_[static_cast<std::size_t>(b)] == jb) return hit(b);
    return -1;
  }
  double expected_size() const override {
    return ptr_.size() > 1 ? static_cast<double>(ind_.size()) * c_ /
                                 static_cast<double>(ptr_.size() - 1)
                           : 0.0;
  }
  LevelDescriptor describe() const override {
    LevelDescriptor d;
    d.kind = LevelDescriptor::Kind::kBlocked;
    d.sorted = sorted_;
    d.ptr = ptr_.data();
    d.ptr_len = static_cast<index_t>(ptr_.size());
    d.ind = ind_.data();
    d.ind_len = static_cast<index_t>(ind_.size());
    d.block_r = r_;
    d.block_c = c_;
    return d;
  }

 private:
  std::span<const index_t> ptr_;
  std::span<const index_t> ind_;
  index_t r_;
  index_t c_;
  bool sorted_;
};

// sliced(chunk=C, sigma=S, base=B, len=L, ind=I): SELL-C-sigma. Rows are
// gathered into chunks of C lanes (sorted by length inside sigma-row
// windows); entry k of row i sits at pos = B[i] + k*C for k in
// [0, L[i]). Padding lanes beyond L[i] are never enumerated, so slack
// cannot perturb outputs or counters.
class GSlicedLevel final : public IndexLevel {
 public:
  GSlicedLevel(std::span<const index_t> base, std::span<const index_t> len,
               std::span<const index_t> ind, index_t chunk, index_t sigma,
               bool sorted)
      : base_(base),
        len_(len),
        ind_(ind),
        chunk_(chunk),
        sigma_(sigma),
        sorted_(sorted) {
    long long total = 0;
    for (index_t l : len_) total += l;
    avg_ = len_.empty() ? 0.0
                        : static_cast<double>(total) /
                              static_cast<double>(len_.size());
  }

  LevelProperties properties() const override {
    return {sorted_, false, SearchCost::kLinear};
  }
  void enumerate(index_t parent, const EnumFn& fn) const override {
    const index_t b = base_[static_cast<std::size_t>(parent)];
    const index_t n = len_[static_cast<std::size_t>(parent)];
    for (index_t k = 0; k < n; ++k) {
      const index_t pos = b + k * chunk_;
      if (!fn(ind_[static_cast<std::size_t>(pos)], pos)) return;
    }
  }
  index_t search(index_t parent, index_t index) const override {
    const index_t b = base_[static_cast<std::size_t>(parent)];
    const index_t n = len_[static_cast<std::size_t>(parent)];
    for (index_t k = 0; k < n; ++k) {
      const index_t pos = b + k * chunk_;
      if (ind_[static_cast<std::size_t>(pos)] == index) return pos;
    }
    return -1;
  }
  double expected_size() const override { return avg_; }
  LevelDescriptor describe() const override {
    LevelDescriptor d;
    d.kind = LevelDescriptor::Kind::kSliced;
    d.sorted = sorted_;
    d.ind = ind_.data();
    d.ind_len = static_cast<index_t>(ind_.size());
    d.off = base_.data();
    d.off_len = static_cast<index_t>(base_.size());
    d.len = len_.data();
    d.len_len = static_cast<index_t>(len_.size());
    d.chunk = chunk_;
    d.sigma = sigma_;
    return d;
  }

 private:
  std::span<const index_t> base_;
  std::span<const index_t> len_;
  std::span<const index_t> ind_;
  index_t chunk_;
  index_t sigma_;
  bool sorted_;
  double avg_;
};

// ---------------------------------------------------------------- parser

struct Token {
  std::string text;
  int line;
};

std::vector<Token> tokenize(const std::string& spec) {
  std::vector<Token> out;
  std::string cur;
  int line = 1;
  auto flush = [&] {
    if (!cur.empty()) {
      out.push_back({cur, line});
      cur.clear();
    }
  };
  for (char c : spec) {
    if (c == '\n') {
      flush();
      ++line;
    } else if (std::isspace(static_cast<unsigned char>(c))) {
      flush();
    } else if (c == '{' || c == '}' || c == '(' || c == ')' || c == ':' ||
               c == ';' || c == ',' || c == '=') {
      flush();
      out.push_back({std::string(1, c), line});
    } else {
      cur.push_back(c);
    }
  }
  flush();
  return out;
}

class Parser {
 public:
  explicit Parser(const std::string& spec) : tokens_(tokenize(spec)) {}

  const Token& peek() const {
    BERNOULLI_CHECK_MSG(pos_ < tokens_.size(), "format spec ended early");
    return tokens_[pos_];
  }
  Token next() {
    Token t = peek();
    ++pos_;
    return t;
  }
  void expect(const std::string& text) {
    Token t = next();
    BERNOULLI_CHECK_MSG(t.text == text, "format spec line "
                                            << t.line << ": expected '"
                                            << text << "', got '" << t.text
                                            << "'");
  }
  bool done() const { return pos_ >= tokens_.size(); }

 private:
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

bool peek_is(Parser& p, const std::string& word) {
  return !p.done() && p.peek().text == word;
}

// `sorted` is the default; `unsorted` demotes search to linear and keeps
// the level out of merge joins.
bool parse_sortedness(Parser& p) {
  if (!p.done() && p.peek().text == "sorted") {
    p.next();
    return true;
  }
  if (!p.done() && p.peek().text == "unsorted") {
    p.next();
    return false;
  }
  return true;
}

std::span<const index_t> lookup_index(const FormatArrays& arrays,
                                      const std::string& name, int line) {
  auto it = arrays.index_arrays.find(name);
  BERNOULLI_CHECK_MSG(it != arrays.index_arrays.end(),
                      "format spec line " << line << ": unknown index array '"
                                          << name << "'");
  return it->second;
}

index_t parse_number(const Token& t, const char* what) {
  try {
    return static_cast<index_t>(std::stol(t.text));
  } catch (...) {
    BERNOULLI_CHECK_MSG(false, "format spec line " << t.line << ": " << what
                                                   << " needs a number");
  }
  return 0;
}

// One `key=value` pair of a parenthesized parameter list, with the `,`
// separator before every pair but the first.
Token parse_kv(Parser& p, const char* key, bool first) {
  if (!first) p.expect(",");
  p.expect(key);
  p.expect("=");
  return p.next();
}

// ------------------------------------------------------------ validation
// The levels index the user's arrays unchecked on every enumerate and
// search, and the linked engine reads the value array by leaf position,
// so every structural promise they rely on is checked once, here.
// `parents` is the number of positions the parent level can produce.

// ptr holds one offset per parent plus the end: non-negative,
// non-decreasing, and ending within the `ind_len` entries it indexes.
void check_ptr(std::span<const index_t> ptr, long long parents,
               index_t ind_len, const Token& t) {
  BERNOULLI_CHECK_MSG(static_cast<long long>(ptr.size()) > parents,
                      "format spec line "
                          << t.line << ": " << t.text << " has " << ptr.size()
                          << " entries but the parent level needs "
                          << parents + 1);
  for (std::size_t k = 0; k < ptr.size(); ++k)
    BERNOULLI_CHECK_MSG(ptr[k] >= 0 && (k == 0 || ptr[k] >= ptr[k - 1]),
                        "format spec line "
                            << t.line << ": " << t.text << "[" << k
                            << "] = " << ptr[k]
                            << (ptr[k] < 0 ? " is negative" : " decreases"));
  BERNOULLI_CHECK_MSG(ptr.back() <= ind_len,
                      "format spec line "
                          << t.line << ": " << t.text << " ends at "
                          << ptr.back() << ", past the " << ind_len
                          << " entries of its index array");
}

// A `sorted` level promises ascending indices within each segment: here
// the `count` entries ind[first + k*stride].
void check_ascending(std::span<const index_t> ind, index_t first,
                     index_t count, index_t stride, const Token& t) {
  for (index_t k = 1; k < count; ++k) {
    const auto at = static_cast<std::size_t>(first + k * stride);
    const auto prev = static_cast<std::size_t>(first + (k - 1) * stride);
    BERNOULLI_CHECK_MSG(ind[prev] <= ind[at],
                        "format spec line "
                            << t.line << ": " << t.text
                            << " is declared sorted but " << t.text << "["
                            << at << "] = " << ind[at] << " follows "
                            << ind[prev]);
  }
}

// A lookup-table level (function map, sliced base/len) needs one entry
// per parent position.
void check_covers(std::span<const index_t> a, long long parents,
                  const Token& t) {
  BERNOULLI_CHECK_MSG(static_cast<long long>(a.size()) >= parents,
                      "format spec line "
                          << t.line << ": " << t.text << " has " << a.size()
                          << " entries but the parent level needs "
                          << parents);
}

}  // namespace

GenericFormatView::~GenericFormatView() = default;

GenericFormatView::GenericFormatView(const std::string& spec,
                                     const FormatArrays& arrays) {
  Parser p(spec);
  p.expect("format");
  name_ = p.next().text;
  p.expect("{");

  // Positions the previous level can produce (the root has one parent).
  long long parents = 1;
  while (peek_is(p, "level")) {
    p.expect("level");
    level_vars_.push_back(p.next().text);
    p.expect(":");
    Token kind = p.next();
    if (kind.text == "dense") {
      p.expect("(");
      Token n = p.next();
      p.expect(")");
      index_t extent = 0;
      try {
        extent = static_cast<index_t>(std::stol(n.text));
      } catch (...) {
        BERNOULLI_CHECK_MSG(false, "format spec line "
                                       << n.line << ": dense() needs a number");
      }
      BERNOULLI_CHECK_MSG(extent >= 0, "format spec line "
                                           << n.line
                                           << ": dense() needs a "
                                           << "non-negative extent");
      levels_.push_back(std::make_unique<DenseIntervalLevel>(extent));
      parents = extent;
    } else if (kind.text == "compressed") {
      p.expect("(");
      p.expect("ptr");
      p.expect("=");
      Token ptr = p.next();
      p.expect(",");
      p.expect("ind");
      p.expect("=");
      Token ind = p.next();
      p.expect(")");
      bool sorted = parse_sortedness(p);
      auto ptr_span = lookup_index(arrays, ptr.text, ptr.line);
      auto ind_span = lookup_index(arrays, ind.text, ind.line);
      check_ptr(ptr_span, parents, static_cast<index_t>(ind_span.size()), ptr);
      if (sorted)
        for (std::size_t s = 0; s + 1 < ptr_span.size(); ++s)
          check_ascending(ind_span, ptr_span[s], ptr_span[s + 1] - ptr_span[s],
                          1, ind);
      levels_.push_back(
          std::make_unique<GCompressedLevel>(ptr_span, ind_span, sorted));
      parents = ptr_span.back();
    } else if (kind.text == "list") {
      p.expect("(");
      p.expect("ind");
      p.expect("=");
      Token ind = p.next();
      p.expect(")");
      bool sorted = parse_sortedness(p);
      auto ind_span = lookup_index(arrays, ind.text, ind.line);
      if (sorted)
        check_ascending(ind_span, 0, static_cast<index_t>(ind_span.size()), 1,
                        ind);
      levels_.push_back(std::make_unique<GListLevel>(ind_span, sorted));
      parents = static_cast<index_t>(ind_span.size());
    } else if (kind.text == "function") {
      p.expect("(");
      p.expect("map");
      p.expect("=");
      Token map = p.next();
      p.expect(")");
      auto map_span = lookup_index(arrays, map.text, map.line);
      check_covers(map_span, parents, map);
      levels_.push_back(std::make_unique<GFunctionLevel>(map_span));
    } else if (kind.text == "blocked") {
      p.expect("(");
      Token rt = parse_kv(p, "r", /*first=*/true);
      Token ct = parse_kv(p, "c", /*first=*/false);
      Token ptr = parse_kv(p, "ptr", /*first=*/false);
      Token ind = parse_kv(p, "ind", /*first=*/false);
      p.expect(")");
      bool sorted = parse_sortedness(p);
      const index_t r = parse_number(rt, "blocked() r");
      const index_t c = parse_number(ct, "blocked() c");
      BERNOULLI_CHECK_MSG(r > 0 && c > 0,
                          "format spec line "
                              << rt.line
                              << ": blocked() needs positive block dims, got r="
                              << r << " c=" << c);
      auto ptr_span = lookup_index(arrays, ptr.text, ptr.line);
      auto ind_span = lookup_index(arrays, ind.text, ind.line);
      BERNOULLI_CHECK_MSG(!ptr_span.empty(), "format spec line "
                                                 << ptr.line
                                                 << ": empty ptr array");
      if (!levels_.empty()) {
        // The scalar-row parent level must tile exactly into block rows.
        const LevelDescriptor pd = levels_.back()->describe();
        const index_t rows = r * static_cast<index_t>(ptr_span.size() - 1);
        BERNOULLI_CHECK_MSG(
            pd.kind != LevelDescriptor::Kind::kDense || pd.extent == rows,
            "format spec line " << rt.line << ": blocked(r=" << r
                                << ") covers " << rows << " rows but parent "
                                << "level is dense(" << pd.extent << ")");
      }
      check_ptr(ptr_span, (parents + r - 1) / r,
                static_cast<index_t>(ind_span.size()), ptr);
      if (sorted)
        for (std::size_t s = 0; s + 1 < ptr_span.size(); ++s)
          check_ascending(ind_span, ptr_span[s], ptr_span[s + 1] - ptr_span[s],
                          1, ind);
      levels_.push_back(std::make_unique<GBlockedLevel>(ptr_span, ind_span, r,
                                                        c, sorted));
      parents = static_cast<long long>(ptr_span.back()) * r * c;
    } else if (kind.text == "sliced") {
      p.expect("(");
      Token chunk_t = parse_kv(p, "chunk", /*first=*/true);
      Token sigma_t = parse_kv(p, "sigma", /*first=*/false);
      Token base = parse_kv(p, "base", /*first=*/false);
      Token len = parse_kv(p, "len", /*first=*/false);
      Token ind = parse_kv(p, "ind", /*first=*/false);
      p.expect(")");
      bool sorted = parse_sortedness(p);
      const index_t chunk = parse_number(chunk_t, "sliced() chunk");
      const index_t sigma = parse_number(sigma_t, "sliced() sigma");
      BERNOULLI_CHECK_MSG(chunk > 0, "format spec line "
                                         << chunk_t.line
                                         << ": sliced() needs a positive "
                                         << "chunk, got " << chunk);
      BERNOULLI_CHECK_MSG(sigma > 0 && sigma % chunk == 0,
                          "format spec line "
                              << sigma_t.line << ": sliced() sigma must be a "
                              << "positive multiple of chunk, got sigma="
                              << sigma << " chunk=" << chunk);
      auto base_span = lookup_index(arrays, base.text, base.line);
      auto len_span = lookup_index(arrays, len.text, len.line);
      auto ind_span = lookup_index(arrays, ind.text, ind.line);
      BERNOULLI_CHECK_MSG(base_span.size() == len_span.size(),
                          "format spec line "
                              << base.line << ": sliced() base and len must "
                              << "have one entry per row (|" << base.text
                              << "|=" << base_span.size() << ", |" << len.text
                              << "|=" << len_span.size() << ")");
      check_covers(base_span, parents, base);
      // Only the lanes within len are ever read; padding beyond is free.
      long long end = 0;
      for (std::size_t i = 0; i < base_span.size(); ++i) {
        const index_t b = base_span[i], n = len_span[i];
        const long long last = b + (n - 1LL) * chunk;
        BERNOULLI_CHECK_MSG(
            b >= 0 && n >= 0 &&
                (n == 0 || last < static_cast<long long>(ind_span.size())),
            "format spec line "
                << base.line << ": sliced() row " << i << " (" << base.text
                << " = " << b << ", " << len.text << " = " << n
                << ") overruns the " << ind_span.size() << " entries of "
                << ind.text);
        if (n > 0) end = std::max(end, last + 1);
        if (sorted) check_ascending(ind_span, b, n, chunk, ind);
      }
      levels_.push_back(std::make_unique<GSlicedLevel>(
          base_span, len_span, ind_span, chunk, sigma, sorted));
      parents = end;
    } else {
      BERNOULLI_CHECK_MSG(false, "format spec line "
                                     << kind.line << ": unknown level kind '"
                                     << kind.text << "'");
    }
    p.expect(";");
  }

  if (peek_is(p, "value")) {
    p.expect("value");
    Token v = p.next();
    auto it = arrays.value_arrays.find(v.text);
    BERNOULLI_CHECK_MSG(it != arrays.value_arrays.end(),
                        "format spec line " << v.line
                                            << ": unknown value array '"
                                            << v.text << "'");
    has_value_ = true;
    values_ = it->second;
    BERNOULLI_CHECK_MSG(static_cast<long long>(values_.size()) >= parents,
                        "format spec line "
                            << v.line << ": value array " << v.text << " has "
                            << values_.size() << " entries but the levels "
                            << "address " << parents << " positions");
    p.expect(";");
  }
  p.expect("}");
  BERNOULLI_CHECK_MSG(!levels_.empty(), "format spec declares no levels");
}

const IndexLevel& GenericFormatView::level(index_t depth) const {
  BERNOULLI_CHECK(depth >= 0 && depth < arity());
  return *levels_[static_cast<std::size_t>(depth)];
}

value_t GenericFormatView::value_at(index_t pos) const {
  BERNOULLI_CHECK_MSG(has_value(), name_ << " declares no value array");
  BERNOULLI_CHECK(pos >= 0 &&
                  pos < static_cast<index_t>(values_.size()));
  return values_[static_cast<std::size_t>(pos)];
}

}  // namespace bernoulli::relation
