#include "sat/proof.hpp"

#include <cstdlib>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace bestagon::sat
{

namespace
{

std::vector<int> to_dimacs_clause(std::span<const Lit> lits)
{
    std::vector<int> out;
    out.reserve(lits.size());
    for (const auto l : lits)
    {
        out.push_back(to_dimacs(l));
    }
    return out;
}

void write_step(std::ostream& out, const DratStep& step)
{
    if (step.is_delete)
    {
        out << "d ";
    }
    for (const auto l : step.lits)
    {
        out << l << ' ';
    }
    out << "0\n";
}

}  // namespace

void MemoryProofTracer::add_derived_clause(std::span<const Lit> lits)
{
    proof_.steps.push_back({false, to_dimacs_clause(lits)});
}

void MemoryProofTracer::delete_clause(std::span<const Lit> lits)
{
    proof_.steps.push_back({true, to_dimacs_clause(lits)});
}

void write_drat(std::ostream& out, const DratProof& proof)
{
    for (const auto& step : proof.steps)
    {
        write_step(out, step);
    }
}

DratProof read_drat(std::istream& in)
{
    DratProof proof;
    DratStep current;
    bool in_step = false;
    std::string token;
    while (in >> token)
    {
        if (token == "c" && !in_step)
        {
            // comment: skip to end of line
            in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
            continue;
        }
        if (token == "d" && !in_step)
        {
            current.is_delete = true;
            in_step = true;
            continue;
        }
        std::size_t consumed = 0;
        long long value = 0;
        try
        {
            value = std::stoll(token, &consumed);
        }
        catch (const std::exception&)
        {
            throw std::runtime_error{"drat: non-integer token '" + token + "'"};
        }
        if (consumed != token.size())
        {
            throw std::runtime_error{"drat: trailing garbage in token '" + token + "'"};
        }
        if (value > std::numeric_limits<int>::max() || value < std::numeric_limits<int>::min() ||
            std::llabs(value) > 50'000'000LL)
        {
            throw std::runtime_error{"drat: literal out of range: " + token};
        }
        if (value == 0)
        {
            proof.steps.push_back(std::move(current));
            current = DratStep{};
            in_step = false;
        }
        else
        {
            current.lits.push_back(static_cast<int>(value));
            in_step = true;
        }
    }
    if (in_step)
    {
        throw std::runtime_error{"drat: unterminated final step (missing 0)"};
    }
    return proof;
}

DratProof read_drat(const std::string& text)
{
    std::istringstream iss{text};
    return read_drat(iss);
}

}  // namespace bestagon::sat
