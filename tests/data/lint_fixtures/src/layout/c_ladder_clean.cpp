// Fixture: clean incremental-ladder loop — the walk polls its budget at the
// top of every iteration, so cancellation takes effect between solves (the
// shape src/layout/exact_physical_design.cpp's run_ladder follows). Must
// produce zero diagnostics.
namespace fixture
{

struct RunBudget
{
    bool stopped() const;
};

struct AspectRatio
{
    unsigned width{0};
    unsigned height{0};
};

struct Ladder
{
    bool next(AspectRatio& out);
    void record_refuted(AspectRatio size);
};

struct PersistentEncoding
{
    int solve_size(AspectRatio size, long conflict_budget);
};

int run_ladder(PersistentEncoding& encoding, Ladder& ladder, const RunBudget& run)
{
    int found = 0;
    AspectRatio size;
    while (ladder.next(size))
    {
        if (run.stopped())
        {
            return found;
        }
        const int verdict = encoding.solve_size(size, 300000);
        if (verdict > 0)
        {
            ++found;
        }
        if (verdict < 0)
        {
            ladder.record_refuted(size);
        }
    }
    return found;
}

}  // namespace fixture
