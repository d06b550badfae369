#include "layout/aspect_ratio_ladder.hpp"

namespace bestagon::layout
{

AspectRatioLadder::AspectRatioLadder(unsigned min_width, unsigned max_width, unsigned min_height,
                                     unsigned max_height)
    : min_width_{min_width}, max_width_{max_width}, min_height_{min_height}, max_height_{max_height}
{
    if (min_width_ <= max_width_ && min_height_ <= max_height_)
    {
        next_height_.assign(max_width_ - min_width_ + 1, min_height_);
    }
}

bool AspectRatioLadder::next(AspectRatio& out)
{
    // k-way merge over the per-width cursors: pick the pending (w, h)
    // minimizing (area, h) — identical to sorting all sizes up front by
    // (area, height), without materializing them
    bool found = false;
    AspectRatio best{};
    for (unsigned w = min_width_; w <= max_width_ && !next_height_.empty(); ++w)
    {
        const unsigned h = next_height_[w - min_width_];
        if (h > max_height_)
        {
            continue;
        }
        const AspectRatio candidate{w, h};
        if (!found || candidate.area() < best.area() ||
            (candidate.area() == best.area() && candidate.height < best.height))
        {
            best = candidate;
            found = true;
        }
    }
    if (!found)
    {
        return false;
    }
    ++next_height_[best.width - min_width_];
    out = best;
    return true;
}

}  // namespace bestagon::layout
