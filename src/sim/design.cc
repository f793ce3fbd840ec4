#include "sim/design.hh"

#include "common/logging.hh"

namespace texpim {

const char *
designName(Design d)
{
    switch (d) {
      case Design::Baseline:
        return "Baseline";
      case Design::BPim:
        return "B-PIM";
      case Design::STfim:
        return "S-TFIM";
      case Design::ATfim:
        return "A-TFIM";
      default:
        TEXPIM_PANIC("bad design ", int(d));
    }
}

bool
parseDesign(const std::string &name, Design &out)
{
    if (name == "baseline")
        out = Design::Baseline;
    else if (name == "b-pim" || name == "bpim")
        out = Design::BPim;
    else if (name == "s-tfim" || name == "stfim")
        out = Design::STfim;
    else if (name == "a-tfim" || name == "atfim")
        out = Design::ATfim;
    else
        return false;
    return true;
}

} // namespace texpim
