#include "core/environment.hpp"

namespace lmr::core {

void Environment::add_static(geom::Polygon poly, EnvKind kind) {
  EnvPolygon e;
  e.bbox = poly.bbox();
  e.kind = kind;
  e.poly = std::move(poly);
  statics_.push_back(std::move(e));
}

void Environment::set_dynamic(std::vector<geom::Polygon> uras) {
  dynamics_.clear();
  dynamics_.reserve(uras.size());
  for (auto& p : uras) {
    EnvPolygon e;
    e.bbox = p.bbox();
    e.kind = EnvKind::SelfUra;
    e.poly = std::move(p);
    dynamics_.push_back(std::move(e));
  }
}

std::vector<const EnvPolygon*> Environment::collect(const geom::Box& query) const {
  std::vector<const EnvPolygon*> out;
  for (const EnvPolygon& e : statics_) {
    if (e.bbox.intersects(query)) out.push_back(&e);
  }
  for (const EnvPolygon& e : dynamics_) {
    if (e.bbox.intersects(query)) out.push_back(&e);
  }
  return out;
}

}  // namespace lmr::core
