// Level-kind lowering: LevelDescriptor -> Cursor / SearchSpec / EnumSpec.
//
// Every flat storage shape the engine ladder understands is lowered HERE,
// once, from the descriptor a level returns via IndexLevel::describe().
// The native views (array_views, ell_view, jds_view, sparse_vector_view)
// and the format-spec DSL levels all describe themselves with the same
// vocabulary, so a new format is one describe() — the cursor protocol,
// the probe lowering and the specializer all follow mechanically.
#include <algorithm>
#include <string>

#include "relation/cursor.hpp"
#include "support/error.hpp"

namespace bernoulli::relation {

void descriptor_cursor(const LevelDescriptor& d, index_t parent, Cursor& c) {
  using K = LevelDescriptor::Kind;
  c = Cursor{};
  switch (d.kind) {
    case K::kDense:
      c.kind = Cursor::Kind::kDenseRange;
      c.base = parent * d.stride;
      c.end = d.extent;
      return;
    case K::kCompressed:
      c.kind = Cursor::Kind::kIndArray;
      c.ind = d.ind;
      c.cur = d.ptr[static_cast<std::size_t>(parent)];
      c.end = d.ptr[static_cast<std::size_t>(parent) + 1];
      return;
    case K::kList:
      c.kind = Cursor::Kind::kIndArray;
      c.ind = d.ind;
      c.end = d.ind_len;
      return;
    case K::kSingleton:
      c.kind = Cursor::Kind::kSingleton;
      c.end = 1;
      c.s_idx = d.map[static_cast<std::size_t>(parent)];
      c.s_pos = parent;
      return;
    case K::kStrided:
      c.kind = Cursor::Kind::kStrided;
      c.ind = d.ind;
      c.base = parent;
      c.stride = d.stride;
      c.end = d.len[static_cast<std::size_t>(parent)];
      return;
    case K::kOffsets:
      c.kind = Cursor::Kind::kOffsets;
      c.ind = d.ind;
      c.off = d.off;
      c.base = parent;
      c.end = d.len[static_cast<std::size_t>(parent)];
      return;
    case K::kBlocked: {
      const index_t br = parent / d.block_r;
      c.kind = Cursor::Kind::kBlocked;
      c.ind = d.ind;
      c.base = d.ptr[static_cast<std::size_t>(br)];
      c.stride = d.block_c;
      c.bsz = d.block_r * d.block_c;
      c.rofs = (parent % d.block_r) * d.block_c;
      c.end = (d.ptr[static_cast<std::size_t>(br) + 1] - c.base) * d.block_c;
      return;
    }
    case K::kSliced:
      // SELL-C-sigma needs no cursor kind of its own: within one row the
      // entries sit at base + k*C, which is exactly the strided walk.
      c.kind = Cursor::Kind::kStrided;
      c.ind = d.ind;
      c.base = d.off[static_cast<std::size_t>(parent)];
      c.stride = d.chunk;
      c.end = d.len[static_cast<std::size_t>(parent)];
      return;
    case K::kOpaque: break;
  }
  BERNOULLI_CHECK_MSG(false, "descriptor_cursor on an opaque level");
}

SearchSpec descriptor_search(const LevelDescriptor& d) {
  using K = LevelDescriptor::Kind;
  SearchSpec s;
  switch (d.kind) {
    case K::kDense:
      s.kind = d.stride == 0 ? SearchSpec::Kind::kIdentity
                             : SearchSpec::Kind::kAffine;
      s.extent = d.extent;
      s.stride = d.stride;
      return s;
    case K::kCompressed:
      if (!d.sorted) return s;  // unsorted segments: linear virtual scan
      s.kind = SearchSpec::Kind::kSegmentBinary;
      s.ptr = d.ptr;
      s.ind = d.ind;
      return s;
    case K::kList:
      if (!d.sorted) return s;
      s.kind = SearchSpec::Kind::kListBinary;
      s.ind = d.ind;
      s.extent = d.ind_len;
      return s;
    case K::kSingleton:
      s.kind = SearchSpec::Kind::kFunction;
      s.map = d.map;
      return s;
    // Lane/diagonal/block-major layouts search through the level's own
    // virtual method; in practice they only ever drive.
    case K::kStrided:
    case K::kOffsets:
    case K::kBlocked:
    case K::kSliced:
    case K::kOpaque: return s;
  }
  return s;
}

EnumSpec descriptor_enum(const LevelDescriptor& d) {
  using K = LevelDescriptor::Kind;
  EnumSpec e;
  switch (d.kind) {
    case K::kDense:
      e.kind = EnumSpec::Kind::kDense;
      e.extent = d.extent;
      e.stride = d.stride;
      return e;
    case K::kCompressed:
      e.kind = EnumSpec::Kind::kSegmented;
      e.ptr = d.ptr;
      e.ind = d.ind;
      e.ptr_len = d.ptr_len;
      e.ind_len = d.ind_len;
      return e;
    case K::kList:
      e.kind = EnumSpec::Kind::kList;
      e.ind = d.ind;
      e.extent = d.ind_len;
      e.ind_len = d.ind_len;
      return e;
    case K::kSingleton:
      e.kind = EnumSpec::Kind::kFunction;
      e.map = d.map;
      e.map_len = d.map_len;
      return e;
    case K::kStrided:
      e.kind = EnumSpec::Kind::kStrided;
      e.ind = d.ind;
      e.len = d.len;
      e.stride = d.stride;
      e.ind_len = d.ind_len;
      e.len_len = d.len_len;
      return e;
    case K::kOffsets:
      e.kind = EnumSpec::Kind::kOffsets;
      e.ind = d.ind;
      e.off = d.off;
      e.len = d.len;
      e.ind_len = d.ind_len;
      e.off_len = d.off_len;
      e.len_len = d.len_len;
      return e;
    case K::kBlocked:
      e.kind = EnumSpec::Kind::kBlocked;
      e.ptr = d.ptr;
      e.ind = d.ind;
      e.block_r = d.block_r;
      e.block_c = d.block_c;
      e.ptr_len = d.ptr_len;
      e.ind_len = d.ind_len;
      return e;
    case K::kSliced:
      e.kind = EnumSpec::Kind::kSliced;
      e.ind = d.ind;
      e.off = d.off;
      e.len = d.len;
      e.stride = d.chunk;
      e.ind_len = d.ind_len;
      e.off_len = d.off_len;
      e.len_len = d.len_len;
      return e;
    case K::kOpaque: return e;
  }
  return e;
}

namespace {

IndexRange scan_index_range(const index_t* a, index_t n) {
  IndexRange r;
  if (a == nullptr || n <= 0) return r;
  r.mn = r.mx = a[0];
  for (index_t k = 1; k < n; ++k) {
    r.mn = std::min(r.mn, a[k]);
    r.mx = std::max(r.mx, a[k]);
  }
  return r;
}

}  // namespace

IndexRange enum_index_range(const EnumSpec& es) {
  using Kind = EnumSpec::Kind;
  switch (es.kind) {
    case Kind::kDense: {
      IndexRange r;
      if (es.extent > 0) {
        r.mn = 0;
        r.mx = es.extent - 1;
      }
      return r;
    }
    case Kind::kSegmented:
    case Kind::kList:
    case Kind::kStrided:
    case Kind::kOffsets:
    case Kind::kSliced:
      return scan_index_range(es.ind, es.ind_len);
    case Kind::kBlocked: {
      // ind holds block columns; each expands to lanes
      // [ind[b]*c, ind[b]*c + c - 1].
      IndexRange r = scan_index_range(es.ind, es.ind_len);
      if (r.mx >= r.mn) {
        r.mn = r.mn * es.block_c;
        r.mx = r.mx * es.block_c + es.block_c - 1;
      }
      return r;
    }
    case Kind::kFunction:
      return scan_index_range(es.map, es.map_len);
    case Kind::kNone:
      break;
  }
  return {};
}

std::string descriptor_text(const LevelDescriptor& d) {
  using K = LevelDescriptor::Kind;
  switch (d.kind) {
    case K::kOpaque: return "opaque";
    case K::kDense: return "dense " + std::to_string(d.extent);
    case K::kCompressed: return "compressed";
    case K::kList: return "list " + std::to_string(d.ind_len);
    case K::kSingleton: return "singleton";
    case K::kStrided: return "strided lanes=" + std::to_string(d.stride);
    case K::kOffsets: return "offsets";
    case K::kBlocked:
      return "blocked " + std::to_string(d.block_r) + "x" +
             std::to_string(d.block_c);
    case K::kSliced:
      return "sliced C=" + std::to_string(d.chunk) + " sigma=" +
             std::to_string(d.sigma);
  }
  return "?";
}

}  // namespace bernoulli::relation
