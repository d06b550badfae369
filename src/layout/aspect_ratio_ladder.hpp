/// \file aspect_ratio_ladder.hpp
/// \brief Lazy ascending-area stream of candidate layout sizes.
///
/// The exact physical-design ladder explores aspect ratios in ascending area
/// (ties broken toward the smaller height), so the first satisfiable size is
/// area-minimal. This class streams that order lazily — no up-front
/// max_width × max_height materialization — via a k-way merge: per width the
/// candidate heights are already sorted, so the next size overall is the
/// minimum over one cursor per width.
///
/// No dominance pruning: UNSAT is downward-closed in the grid (a refutation
/// at (W, H) also refutes every (w ≤ W, h ≤ H)), but every such size has
/// strictly smaller area, so the single ascending walk has already streamed
/// it — a refuted-size filter would never skip anything.

#pragma once

#include <vector>

namespace bestagon::layout
{

struct AspectRatio
{
    unsigned width{0};
    unsigned height{0};

    [[nodiscard]] constexpr unsigned area() const noexcept { return width * height; }
    constexpr bool operator==(const AspectRatio&) const noexcept = default;
};

class AspectRatioLadder
{
  public:
    /// Streams every (w, h) with min_width <= w <= max_width and
    /// min_height <= h <= max_height. Degenerate bounds (min > max) yield an
    /// empty stream.
    AspectRatioLadder(unsigned min_width, unsigned max_width, unsigned min_height,
                      unsigned max_height);

    /// Next candidate in ascending (area, height) order; false when
    /// exhausted.
    [[nodiscard]] bool next(AspectRatio& out);

  private:
    unsigned min_width_;
    unsigned max_width_;
    unsigned min_height_;
    unsigned max_height_;
    std::vector<unsigned> next_height_;  ///< per-width cursor, indexed by w - min_width_
};

}  // namespace bestagon::layout
