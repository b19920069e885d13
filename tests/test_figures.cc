// The figure registry: cell ids are unique, every figure label resolves to
// a registered cell, and figures that show the same runs share the cells
// instead of forking copies of their configs.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "bench/figures.h"

namespace drrs::bench {
namespace {

// Figure name -> its labels, each checked against the registered cells.
std::map<std::string, std::map<std::string, std::string>> Labels(
    const Registry& reg) {
  std::map<std::string, std::map<std::string, std::string>> figures;
  for (const Figure& f : reg.figures) {
    auto& labels = figures[f.name];
    for (const auto& [label, cell] : f.labels) {
      EXPECT_TRUE(labels.emplace(label, cell).second) << f.name << " " << label;
      EXPECT_EQ(reg.cells.count(cell), 1u) << f.name << " reads " << cell;
    }
  }
  EXPECT_EQ(figures.size(), reg.figures.size()) << "repeated figure name";
  return figures;
}

TEST(FigureRegistry, DuplicateCellIdIsRejected) {
  Registry reg = BuildFigureRegistry();
  const Cell& existing = reg.cells.at("q7.drrs");
  Status s = reg.AddCell(existing);
  EXPECT_EQ(s.code(), Status::Code::kAlreadyExists) << s.ToString();
  EXPECT_TRUE(
      reg.AddCell({"q7.drrs-copy", existing.workload, existing.config}).ok());
}

TEST(FigureRegistry, EveryLabelResolvesToARegisteredCell) {
  Labels(BuildFigureRegistry());
}

TEST(FigureRegistry, Figs10To13ShareNineCellsAndFig14ReusesTwitchDrrs) {
  auto figures = Labels(BuildFigureRegistry());
  std::set<std::string> fig10;
  for (const auto& [label, cell] : figures["fig10"]) fig10.insert(cell);
  EXPECT_EQ(fig10.size(), 9u);
  for (const char* fig : {"fig11", "fig12", "fig13"}) {
    std::set<std::string> cells;
    for (const auto& [label, cell] : figures[fig]) cells.insert(cell);
    EXPECT_EQ(cells, fig10) << fig;
  }
  EXPECT_EQ(figures["fig14"]["drrs"], "twitch.drrs");
  EXPECT_EQ(fig10.count("twitch.drrs"), 1u);
}

}  // namespace
}  // namespace drrs::bench
