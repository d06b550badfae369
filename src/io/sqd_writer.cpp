#include "io/sqd_writer.hpp"

#include <ostream>

namespace bestagon::io
{

namespace
{

void write_header(std::ostream& out, const std::string& name, bool with_defects)
{
    out << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
        << "<siqad>\n"
        << "  <program>\n"
        << "    <file_purpose>save</file_purpose>\n"
        << "    <name>" << name << "</name>\n"
        << "    <version>0.3.3</version>\n"
        << "  </program>\n"
        << "  <layers>\n"
        << "    <layer_prop><name>Lattice</name><type>Lattice</type></layer_prop>\n"
        << "    <layer_prop><name>DB</name><type>DB</type></layer_prop>\n";
    if (with_defects)
    {
        out << "    <layer_prop><name>Defects</name><type>Defect</type></layer_prop>\n";
    }
    out << "  </layers>\n"
        << "  <design>\n"
        << "    <layer type=\"DB\">\n";
}

void write_db(std::ostream& out, const phys::SiDBSite& s)
{
    out << "      <dbdot>\n"
        << "        <layer_id>1</layer_id>\n"
        << "        <latcoord n=\"" << s.n << "\" m=\"" << s.m << "\" l=\"" << s.l << "\"/>\n"
        << "      </dbdot>\n";
}

void write_defect_layer(std::ostream& out, const phys::DefectSurface& defects)
{
    out << "    <layer type=\"Defect\">\n";
    for (const auto& d : defects.defects())
    {
        out << "      <defect>\n"
            << "        <layer_id>2</layer_id>\n"
            << "        <latcoord n=\"" << d.site.n << "\" m=\"" << d.site.m << "\" l=\""
            << d.site.l << "\"/>\n"
            << "        <property kind=\""
            << (d.kind == phys::DefectKind::charged ? "charged" : "structural") << "\" charge=\""
            << d.charge << "\" exclusion_radius_nm=\"" << d.exclusion_radius_nm << "\"/>\n"
            << "      </defect>\n";
    }
    out << "    </layer>\n";
}

void write_footer(std::ostream& out, const phys::DefectSurface& defects)
{
    out << "    </layer>\n";
    if (!defects.empty())
    {
        write_defect_layer(out, defects);
    }
    out << "  </design>\n"
        << "</siqad>\n";
}

void write_impl(std::ostream& out, const std::vector<phys::SiDBSite>& sites,
                const std::string& name, const phys::DefectSurface& defects)
{
    write_header(out, name, !defects.empty());
    for (const auto& s : sites)
    {
        write_db(out, s);
    }
    write_footer(out, defects);
}

}  // namespace

void write_sqd(std::ostream& out, const layout::SiDBLayout& layout, const std::string& name)
{
    write_impl(out, layout.sites, name, {});
}

void write_sqd(std::ostream& out, const phys::GateDesign& design,
               const phys::DefectSurface& defects)
{
    write_impl(out, design.instance_sites(0), design.name, defects);
}

}  // namespace bestagon::io
