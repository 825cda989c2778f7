// Aligned ASCII table + CSV writer used by every bench binary so the regenerated
// paper tables/figures print in a uniform, diffable format.
#ifndef SRC_UTIL_TABLE_H_
#define SRC_UTIL_TABLE_H_

#include <string>
#include <vector>

namespace dz {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void AddRow(std::vector<std::string> row);

  // Convenience: formats doubles with the given precision.
  static std::string Num(double value, int precision = 2);

  // Renders with column alignment and a header separator.
  std::string ToAscii() const;
  std::string ToCsv() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace dz

#endif  // SRC_UTIL_TABLE_H_
