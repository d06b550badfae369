/// \file sqd_writer.hpp
/// \brief SiQAD design-file (.sqd XML) writer (flow step 8) so that layouts
///        can be opened and simulated in SiQAD [30].

#pragma once

#include "layout/sidb_layout.hpp"
#include "phys/defect.hpp"
#include "phys/operational.hpp"

#include <iosfwd>
#include <string>

namespace bestagon::io
{

/// Writes a dot-accurate layout in SiQAD's .sqd XML format.
void write_sqd(std::ostream& out, const layout::SiDBLayout& layout,
               const std::string& name = "bestagon_layout");

/// Writes a standalone gate design (including drivers for pattern 0) on the
/// fabrication-defect surface \p defects. A non-empty surface goes into a
/// dedicated Defect layer, each entry carrying kind, charge and exclusion
/// radius as attributes, so the reader round-trips the full surface (see
/// sqd_reader.hpp).
void write_sqd(std::ostream& out, const phys::GateDesign& design,
               const phys::DefectSurface& defects = {});

}  // namespace bestagon::io
