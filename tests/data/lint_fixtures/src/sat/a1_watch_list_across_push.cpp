// Fixture: A1 — a pointer into a watch list held across a push onto another
// list. The push can move every list of the pool, leaving the pointer
// dangling.
namespace fixture
{

struct Watcher
{
    unsigned cref;
    int blocker;
};

struct WatchPool
{
    Watcher* list(unsigned lit);
    void push(unsigned lit, Watcher w);
};

int dangling_read(WatchPool& pool, unsigned lit, unsigned other)
{
    Watcher* ws = pool.list(lit);
    pool.push(other, Watcher{0, 1});
    return ws[0].blocker;
}

}  // namespace fixture
