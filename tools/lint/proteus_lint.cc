/**
 * @file
 * proteus_lint CLI — the determinism-and-safety gate for the tree.
 *
 *   proteus_lint                  # scan src/ bench/ tools/ tests/
 *   proteus_lint --json           # machine-readable findings
 *   proteus_lint --root DIR       # scan relative to DIR
 *   proteus_lint path...          # scan explicit files/dirs (keeps
 *                                 # lint fixtures, used by the tests)
 *   proteus_lint --list-rules     # print the rule registry
 *   proteus_lint --rule D1,C1     # run only the named rules
 *
 * Exit status: 0 clean, 1 unsuppressed findings, 2 usage/IO error.
 */

#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.h"

namespace {

int
usage()
{
    std::cerr << "usage: proteus_lint [--json] [--show-suppressed] "
                 "[--list-rules] [--rule ID[,ID...]] [--root DIR] "
                 "[path...]\n";
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    namespace lint = proteus::lint;

    bool json = false;
    bool show_suppressed = false;
    std::string root;
    std::vector<std::string> paths;
    lint::LintOptions options;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg == "--show-suppressed") {
            show_suppressed = true;
        } else if (arg == "--list-rules") {
            for (const lint::RuleInfo& r : lint::ruleRegistry())
                std::cout << r.id << "  " << r.summary << "\n";
            return 0;
        } else if (arg == "--rule") {
            if (++i >= argc)
                return usage();
            std::stringstream ss(argv[i]);
            std::string id;
            while (std::getline(ss, id, ',')) {
                if (id.empty())
                    continue;
                if (!lint::isKnownRule(id)) {
                    std::cerr << "proteus_lint: unknown rule '" << id
                              << "' (see --list-rules)\n";
                    return 2;
                }
                options.rules.insert(id);
            }
            if (options.rules.empty())
                return usage();
        } else if (arg == "--root") {
            if (++i >= argc)
                return usage();
            root = argv[i];
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else {
            paths.push_back(arg);
        }
    }

    const bool explicit_paths = !paths.empty();
    if (!explicit_paths) {
        const std::string base = root.empty() ? "" : root + "/";
        for (const char* d : {"src", "bench", "tools", "tests"})
            paths.push_back(base + d);
    }

    const std::vector<std::string> files =
        lint::collectFiles(paths, /*skip_fixtures=*/!explicit_paths);
    if (files.empty()) {
        std::cerr << "proteus_lint: no input files\n";
        return 2;
    }

    const lint::Analysis analysis = lint::analyzeFiles(files, options);

    bool io_error = false;
    std::size_t unsuppressed = 0;
    std::size_t suppressed = 0;
    for (const lint::Finding& f : analysis.findings) {
        io_error = io_error || f.rule == "IO";
        if (f.suppressed)
            ++suppressed;
        else
            ++unsuppressed;
    }

    if (json) {
        std::cout << lint::toJson(analysis.findings,
                                  analysis.files_scanned);
    } else {
        for (const lint::Finding& f : analysis.findings) {
            if (f.suppressed && !show_suppressed)
                continue;
            std::cout << lint::formatHuman(f) << "\n";
        }
        std::cout << "proteus_lint: scanned " << analysis.files_scanned
                  << " files, " << unsuppressed
                  << " unsuppressed findings (" << suppressed
                  << " suppressed)\n";
    }

    if (io_error)
        return 2;
    return unsuppressed > 0 ? 1 : 0;
}
