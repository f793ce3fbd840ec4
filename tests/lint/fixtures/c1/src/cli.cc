#include <map>
#include <string>
#include <vector>

static const int kOutside = 1;

// Entries outside the markers are not a command-key table.
static const std::map<std::string, int> notCommandKeys = {
    {"outside_key", kOutside},
};

const std::map<std::string, std::vector<std::string>> &
commandOnlyKeys()
{
    static const std::vector<std::string> one = {"sweep"};
    // texpim-lint: command-key-table begin
    static const std::map<std::string, std::vector<std::string>> keys = {
        {"used_key", {"render", "compare"}},
        {"sim.depth", one},
        {"retired_key", one},
    };
    // texpim-lint: command-key-table end
    return keys;
}
