#include "sat/ipasir_backend.hpp"

#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#include <dlfcn.h>
#define BESTAGON_HAS_DLOPEN 1
#else
#define BESTAGON_HAS_DLOPEN 0
#endif

namespace bestagon::sat
{

namespace
{

[[nodiscard]] constexpr std::int32_t to_ipasir(Lit l) noexcept
{
    return l.sign() ? -(l.var() + 1) : l.var() + 1;
}

}  // namespace

#if BESTAGON_HAS_DLOPEN

namespace
{

template <typename Fn>
Fn resolve(void* handle, const char* name)
{
    // dlsym returns an object pointer; converting it to a function pointer
    // is the POSIX-sanctioned way to use it
    auto* sym = dlsym(handle, name);
    if (sym == nullptr)
    {
        throw std::runtime_error{std::string{"IPASIR symbol missing: "} + name};
    }
    return reinterpret_cast<Fn>(sym);  // NOLINT
}

}  // namespace

IpasirBackend::IpasirBackend(const std::string& library_path)
{
    handle_ = dlopen(library_path.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (handle_ == nullptr)
    {
        const char* err = dlerror();
        throw std::runtime_error{"cannot load IPASIR library '" + library_path +
                                 "': " + (err != nullptr ? err : "unknown error")};
    }
    signature_fn_ = resolve<SignatureFn>(handle_, "ipasir_signature");
    const auto init_fn = resolve<InitFn>(handle_, "ipasir_init");
    release_fn_ = resolve<ReleaseFn>(handle_, "ipasir_release");
    add_fn_ = resolve<AddFn>(handle_, "ipasir_add");
    assume_fn_ = resolve<AssumeFn>(handle_, "ipasir_assume");
    solve_fn_ = resolve<SolveFn>(handle_, "ipasir_solve");
    val_fn_ = resolve<ValFn>(handle_, "ipasir_val");
    failed_fn_ = resolve<FailedFn>(handle_, "ipasir_failed");
    set_terminate_fn_ = resolve<SetTerminateFn>(handle_, "ipasir_set_terminate");
    solver_ = init_fn();
}

IpasirBackend::~IpasirBackend()
{
    if (solver_ != nullptr)
    {
        release_fn_(solver_);
    }
    if (handle_ != nullptr)
    {
        dlclose(handle_);
    }
}

#else  // !BESTAGON_HAS_DLOPEN

IpasirBackend::IpasirBackend(const std::string& library_path)
{
    throw std::runtime_error{"IPASIR backends require dlopen support; cannot load '" + library_path + "'"};
}

IpasirBackend::~IpasirBackend() = default;

#endif

std::string IpasirBackend::signature() const
{
    return signature_fn_ != nullptr ? std::string{signature_fn_()} : std::string{};
}

bool IpasirBackend::add_clause(std::vector<Lit> lits)
{
    for (const auto l : lits)
    {
        add_fn_(solver_, to_ipasir(l));
    }
    add_fn_(solver_, 0);
    const bool empty = lits.empty();
    original_clauses_.push_back(std::move(lits));
    return !empty;
}

int IpasirBackend::terminate_callback(void* data)
{
    auto* self = static_cast<IpasirBackend*>(data);
    if (self->stop_token_.stop_requested() || self->deadline_.expired())
    {
        return 1;
    }
    if (self->time_budget_ms_ >= 0 &&
        core::now_ms() - self->solve_start_ms_ >= self->time_budget_ms_)
    {
        return 1;
    }
    return 0;
}

Result IpasirBackend::solve(const std::vector<Lit>& assumptions)
{
    for (const auto a : assumptions)
    {
        assume_fn_(solver_, to_ipasir(a));
    }
    solve_start_ms_ = core::now_ms();
    set_terminate_fn_(solver_, this, &IpasirBackend::terminate_callback);
    const int verdict = solve_fn_(solver_);

    conflict_core_.clear();
    if (verdict == 20)
    {
        for (const auto a : assumptions)
        {
            if (failed_fn_(solver_, to_ipasir(a)) != 0)
            {
                conflict_core_.push_back(a);
            }
        }
        return Result::unsatisfiable;
    }
    if (verdict == 10)
    {
        return Result::satisfiable;
    }
    return Result::unknown;
}

bool IpasirBackend::model_value(Var v) const
{
    return val_fn_(solver_, v + 1) > 0;
}

}  // namespace bestagon::sat
