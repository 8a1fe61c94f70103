#pragma once
/// \file environment.hpp
/// The extension environment: every polygon a candidate pattern's URA must be
/// checked against — the routable-area outline, obstacle holes (inflated for
/// d_obs), and the URAs of the other segments of the trace under extension.
///
/// Static polygons (area + obstacles) are kept with their bounding boxes in a
/// flat list for prefiltering. Dynamic polygons (the trace's self-URAs, which
/// change after every insertion) are swapped per segment. `collect` scans
/// both linearly. The environment holds no node index: the 2-D range tree the
/// paper prescribes for Alg. 2 (§IV-D) is built per height solver over the
/// polygons collected near one segment (HeightSolver::node_tree_).

#include <cstdint>
#include <vector>

#include "geom/box.hpp"
#include "geom/polygon.hpp"

namespace lmr::core {

/// Role of an environment polygon; the height solver treats walls (area
/// outlines) as never-enclosable, while obstacles fully inside a pattern's
/// inner border are legal (the pattern routes around them).
enum class EnvKind : std::uint8_t {
  Obstacle,     ///< solid polygon the trace must clear (enclosable)
  AreaOutline,  ///< routable-area boundary (the trace lives inside it)
  SelfUra,      ///< URA of another segment of the same trace (not enclosable)
};

/// One polygon with its role and cached bbox.
struct EnvPolygon {
  geom::Polygon poly;
  EnvKind kind = EnvKind::Obstacle;
  geom::Box bbox;
};

/// Static environment plus swappable dynamic overlay.
class Environment {
 public:
  Environment() = default;

  /// Add a static polygon.
  void add_static(geom::Polygon poly, EnvKind kind);

  /// Replace the dynamic overlay (self-URAs of the current trace).
  void set_dynamic(std::vector<geom::Polygon> uras);

  /// Collect every environment polygon whose bbox intersects `query`
  /// (static + dynamic). Pointers remain valid until the next mutation.
  [[nodiscard]] std::vector<const EnvPolygon*> collect(const geom::Box& query) const;

  [[nodiscard]] const std::vector<EnvPolygon>& statics() const { return statics_; }
  [[nodiscard]] const std::vector<EnvPolygon>& dynamics() const { return dynamics_; }

 private:
  std::vector<EnvPolygon> statics_;
  std::vector<EnvPolygon> dynamics_;
};

}  // namespace lmr::core
