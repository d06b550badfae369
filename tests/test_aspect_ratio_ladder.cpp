#include "layout/aspect_ratio_ladder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace
{

using bestagon::layout::AspectRatio;
using bestagon::layout::AspectRatioLadder;

std::vector<AspectRatio> drain(AspectRatioLadder& ladder)
{
    std::vector<AspectRatio> sizes;
    AspectRatio size;
    while (ladder.next(size))
    {
        sizes.push_back(size);
    }
    return sizes;
}

TEST(AspectRatioLadder, StreamsAscendingAreaWithHeightTiebreak)
{
    AspectRatioLadder ladder{2, 4, 3, 5};
    const auto sizes = drain(ladder);
    ASSERT_EQ(sizes.size(), 9U);  // 3 widths x 3 heights

    // the lazy stream must equal the materialized sort by (area, height)
    std::vector<AspectRatio> expected;
    for (unsigned w = 2; w <= 4; ++w)
    {
        for (unsigned h = 3; h <= 5; ++h)
        {
            expected.push_back({w, h});
        }
    }
    std::sort(expected.begin(), expected.end(), [](AspectRatio a, AspectRatio b) {
        return a.area() != b.area() ? a.area() < b.area() : a.height < b.height;
    });
    EXPECT_EQ(sizes, expected);
}

TEST(AspectRatioLadder, DegenerateBoundsYieldEmptyStream)
{
    AspectRatioLadder none{5, 4, 1, 10};
    AspectRatio size;
    EXPECT_FALSE(none.next(size));

    AspectRatioLadder flat{1, 3, 7, 6};
    EXPECT_FALSE(flat.next(size));
}

}  // namespace
