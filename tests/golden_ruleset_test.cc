// Golden rulesets: the selected rules of the production pipeline
// (FairCap::Run) pinned as constants, so the estimation engine and the
// mining layers cannot drift together unnoticed.
//
// Configurations, all at num_threads=1, num_shards=1 and each generator's
// default seed:
//   * german: all three CATE methods, with fairness off and with group SP
//     at 0.1 (the outcome is a probability);
//   * stackoverflow: regression and stratified, with the Table-4 options
//     (min support 0.1, patterns of length <= 2, min_group_size 30), with
//     fairness off and with group SP at $10000 (the outcome is in
//     dollars; a threshold of 0.5 would select no rule).
//
// The constants were captured when the pipeline could still run the
// per-call estimator (now the test oracle in tests/oracle/) in place of
// the sufficient-statistics engine; both paths selected exactly these
// rulesets, with utilities equal to 1.2e-13 relative. Groupings,
// interventions and supports are pinned exactly, utilities to 1e-9
// relative.
//
// A third family runs the scale benchmark's synthetic configuration
// (MakeSynthetic defaults, seed 1) at 200K rows, with real and with
// integer outcomes, regression, group SP at 60, at 1 thread / 1 shard and
// at 4 threads / 4 shards. Its protected pattern (Group = protected) and
// the grouping patterns over Group and I1..I3 are confounders of every
// treatment, so these runs take the cell shortcuts of the estimation
// engine (protected split and groups from per-cell statistics). Those
// constants were captured before the shortcuts existed, when every
// subgroup was walked row by row.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <string>

#include "core/faircap.h"
#include "data/german.h"
#include "data/stackoverflow.h"
#include "ingest/synthetic.h"
#include "util/obs/metrics.h"

namespace faircap {
namespace {

struct GoldenRule {
  const char* grouping;
  const char* intervention;
  size_t support;
  size_t support_protected;
  double utility;
  double utility_protected;
  double utility_nonprotected;
};

constexpr GoldenRule kGermanRegressionNoFairness[] = {
    {"ForeignWorker = no",
     "CheckingBalance = >=200DM AND SavingsBalance = high",
     905, 79, 0.30057293238873861, 0, 0.28127834250747241},
    {"AgeGroup = 19-25",
     "CheckingBalance = >=200DM AND Housing = own",
     196, 17, 0.51927093202962094, 0, 0.50865946616864821},
    {"Gender = female AND AgeGroup = 26-40",
     "CheckingBalance = >=200DM AND InstallmentRate = low",
     133, 36, 0.49877338182416397, 0, 0.4786599470367936},
    {"Gender = male AND PersonalStatus = married AND Dependents = 1+",
     "CheckingBalance = >=200DM AND Housing = own",
     153, 0, 0.49508089730768279, 0, 0.49508089730768279},
    {"PersonalStatus = single",
     "CreditHistory = good AND Housing = own",
     393, 85, 0.37812453052863709, 0.26814740266265963, 0.38969162097429},
    {"PersonalStatus = married AND Dependents = 0",
     "CheckingBalance = >=200DM AND SavingsBalance = high",
     224, 0, 0.44453726886170508, 0, 0.44453726886170508},
    {"PersonalStatus = divorced",
     "Job = skilled AND CheckingBalance = >=200DM",
     142, 0, 0.45924597151481922, 0, 0.45924597151481922},
    {"AgeGroup = 19-25 AND ForeignWorker = no",
     "CreditHistory = ok AND Housing = own",
     174, 16, 0.54980485620033404, 0, 0.53838711278238238},
    {"Gender = male AND AgeGroup = 19-25",
     "CreditHistory = ok AND Housing = own",
     137, 0, 0.54129822549051343, 0, 0.54129822549051343},
    {"Gender = female AND AgeGroup = 26-40 AND ForeignWorker = no",
     "CheckingBalance = >=200DM AND InstallmentRate = low",
     123, 34, 0.514332444826056, 0, 0.48342370519021699},
    {"PersonalStatus = single AND ForeignWorker = no",
     "Job = management AND Housing = own",
     364, 79, 0.41913234794789028, 0.66986402655617561, 0.31868098286547669},
    {"Gender = male AND AgeGroup = 19-25 AND ForeignWorker = no",
     "CreditHistory = ok AND Housing = own",
     123, 0, 0.52705416345399603, 0, 0.52705416345399603},
    {"AgeGroup = 26-40 AND Dependents = 1+",
     "CreditHistory = good AND CreditAmountBand = medium",
     152, 4, 0.47799154346436523, 0, 0.46251181811135977},
    {"Gender = female AND Dependents = 1+",
     "CheckingBalance = >=200DM AND CreditAmountBand = medium",
     107, 12, 0.40822175339347222, 0, 0.39063481937513017},
    {"PersonalStatus = divorced AND ForeignWorker = no",
     "Job = skilled AND CheckingBalance = >=200DM",
     130, 0, 0.47568289336802216, 0, 0.47568289336802216},
    {"AgeGroup = 19-25 AND Dependents = 0",
     "Housing = own AND CreditAmountBand = small",
     153, 15, 0.49188051786639081, 0, 0.47103649171090334},
    {"AgeGroup = 19-25 AND ForeignWorker = no AND Dependents = 0",
     "Housing = own AND CreditAmountBand = small",
     136, 14, 0.48270989757074773, 0, 0.46125629164963933},
};
constexpr GoldenRule kGermanRegressionGroupSp[] = {
    {"ForeignWorker = no",
     "CreditHistory = good AND Housing = own",
     905, 79, 0.28914636756104883, 0.29701816948921028, 0.28466673864644521},
    {"Dependents = 0",
     "CreditHistory = good AND Housing = own",
     675, 73, 0.34091649598499446, 0.22568679724076265, 0.34766927565968847},
    {"PersonalStatus = single AND ForeignWorker = no",
     "Job = management AND Housing = own",
     364, 79, 0.41913234794789028, 0.66986402655617561, 0.31868098286547669},
};
constexpr GoldenRule kGermanStratifiedNoFairness[] = {
    {"ForeignWorker = no",
     "CheckingBalance = >=200DM AND Purpose = used_car",
     905, 79, 0.34094995853768989, 0.11959134615384613, 0.36939613669341664},
    {"AgeGroup = 19-25",
     "CheckingBalance = >=200DM AND Housing = own",
     196, 17, 0.54880421875186269, 0, 0.53284992290892563},
    {"Gender = female",
     "CheckingBalance = >=200DM AND SavingsBalance = high",
     302, 85, 0.4373721690783291, 0, 0.39745238868651706},
    {"PersonalStatus = married AND AgeGroup = 26-40 AND Dependents = 1+",
     "CheckingBalance = >=200DM AND Property = none",
     112, 0, 0.49928148774302628, 0, 0.49928148774302628},
    {"Gender = male AND PersonalStatus = single",
     "CreditHistory = good AND Housing = own",
     308, 0, 0.41490167442845566, 0, 0.41490167442845566},
    {"PersonalStatus = married AND Dependents = 0",
     "CheckingBalance = >=200DM AND SavingsBalance = high",
     224, 0, 0.44661567651446588, 0, 0.44661567651446588},
    {"AgeGroup = 19-25 AND ForeignWorker = no",
     "CheckingBalance = >=200DM AND Housing = own",
     174, 16, 0.55199080589173477, 0, 0.5373598695676618},
    {"PersonalStatus = divorced",
     "Job = skilled AND CheckingBalance = >=200DM",
     142, 0, 0.45000962000961992, 0, 0.45000962000961992},
    {"Dependents = 1+",
     "EmploymentDuration = <1y AND SavingsBalance = medium",
     325, 12, 0.43671114316624593, 0, 0.42861504016711294},
    {"Gender = female AND AgeGroup = 26-40 AND ForeignWorker = no",
     "CheckingBalance = >=200DM AND InstallmentRate = low",
     123, 34, 0.49814032121724433, 0, 0.44572423461312349},
    {"Gender = male AND AgeGroup = 19-25 AND ForeignWorker = no",
     "CreditHistory = ok AND Housing = own",
     123, 0, 0.53441322002974612, 0, 0.53441322002974612},
    {"Gender = male AND AgeGroup = 19-25",
     "CreditHistory = ok AND Housing = own",
     137, 0, 0.53272858349717478, 0, 0.53272858349717478},
    {"AgeGroup = 19-25 AND Dependents = 0",
     "CheckingBalance = >=200DM AND InstallmentRate = low",
     153, 15, 0.50889467675181965, 0, 0.53284225715804667},
    {"Gender = male AND AgeGroup = 19-25 AND Dependents = 0",
     "CheckingBalance = >=200DM AND CreditAmountBand = small",
     110, 0, 0.49853801169590639, 0, 0.49853801169590639},
    {"Gender = female AND AgeGroup = 26-40",
     "CheckingBalance = >=200DM AND InstallmentRate = low",
     133, 36, 0.49365726512673075, 0, 0.45220811796898752},
    {"PersonalStatus = single AND AgeGroup = 26-40 AND ForeignWorker = no",
     "CheckingBalance = >=200DM AND InstallmentRate = low",
     176, 34, 0.44293682844720306, 0, 0.395615691292383},
    {"Gender = female AND ForeignWorker = no AND Dependents = 0",
     "CheckingBalance = >=200DM AND InstallmentRate = low",
     177, 68, 0.47014019817328645, 0, 0.42225230298304883},
};
constexpr GoldenRule kGermanStratifiedGroupSp[] = {
    {"ForeignWorker = no",
     "Job = management AND CheckingBalance = >=200DM",
     905, 79, 0.32946126770330852, 0.35805860805860806, 0.29635151781561903},
    {"Dependents = 0",
     "CreditHistory = good AND Housing = own",
     675, 73, 0.36982856647542139, 0.2590600888473229, 0.37100870790264728},
    {"PersonalStatus = single AND ForeignWorker = no",
     "CreditHistory = good AND Housing = own",
     364, 79, 0.41179273898703461, 0.31523323615160348, 0.41134949822025652},
    {"Gender = female AND Dependents = 0",
     "Housing = own AND CreditAmountBand = small",
     195, 73, 0.36530612244897959, 0.45454545454545453, 0.26864330637915546},
    {"PersonalStatus = single AND AgeGroup = 26-40 AND Dependents = 0",
     "CheckingBalance = >=200DM AND SavingsBalance = medium",
     163, 32, 0.36260771399179703, 0.56862745098039225, 0.37325117796303009},
    {"AgeGroup = 26-40",
     "CheckingBalance = >=200DM AND SavingsBalance = medium",
     456, 36, 0.29290475618508144, 0.6271929824561403, 0.27620952092437029},
};
constexpr GoldenRule kGermanIpwNoFairness[] = {
    {"ForeignWorker = no",
     "CheckingBalance = >=200DM AND SavingsBalance = high",
     905, 79, 0.32001491514572433, 0, 0.2992797659351859},
    {"AgeGroup = 19-25",
     "CheckingBalance = >=200DM AND Housing = own",
     196, 17, 0.54387233813943647, 0, 0.52786742969109202},
    {"Gender = female",
     "CheckingBalance = >=200DM AND SavingsBalance = high",
     302, 85, 0.42196361881089295, 0, 0.3663649600757205},
    {"Gender = male AND Dependents = 1+",
     "CheckingBalance = >=200DM AND Housing = own",
     218, 0, 0.44532090671164037, 0, 0.44532090671164037},
    {"Gender = male AND Dependents = 0",
     "CreditHistory = good AND Housing = own",
     480, 0, 0.37769520038284721, 0, 0.37769520038284721},
    {"Gender = female AND AgeGroup = 26-40 AND ForeignWorker = no",
     "CheckingBalance = >=200DM AND InstallmentRate = low",
     123, 34, 0.50530473302426138, 0, 0.45990765974010328},
    {"PersonalStatus = single AND ForeignWorker = no AND Dependents = 0",
     "SavingsBalance = high AND Housing = own",
     311, 68, 0.45274816843398824, 0, 0.40295182479977498},
    {"AgeGroup = 19-25 AND ForeignWorker = no",
     "CheckingBalance = >=200DM AND Housing = own",
     174, 16, 0.55037506186401242, 0, 0.53588761578315203},
    {"Gender = male AND AgeGroup = 19-25 AND ForeignWorker = no",
     "CreditHistory = ok AND Housing = own",
     123, 0, 0.53441322046563022, 0, 0.53441322046563022},
    {"Gender = male AND AgeGroup = 19-25",
     "CreditHistory = ok AND Housing = own",
     137, 0, 0.53272858323575734, 0, 0.53272858323575734},
    {"Gender = female AND ForeignWorker = no AND Dependents = 0",
     "CheckingBalance = >=200DM AND InstallmentRate = low",
     177, 68, 0.4894381955351691, 0, 0.45722405601077021},
    {"AgeGroup = 19-25 AND Dependents = 0",
     "Housing = own AND CreditAmountBand = small",
     153, 15, 0.517162439756083, 0, 0.49849498795455566},
    {"Gender = female AND AgeGroup = 26-40",
     "CheckingBalance = >=200DM AND InstallmentRate = low",
     133, 36, 0.50015921506209693, 0, 0.45695990790640417},
    {"Gender = male AND PersonalStatus = married AND Dependents = 1+",
     "CheckingBalance = >=200DM AND Housing = own",
     153, 0, 0.46781066255641368, 0, 0.46781066255641368},
    {"AgeGroup = 19-25 AND ForeignWorker = no AND Dependents = 0",
     "Housing = own AND CreditAmountBand = small",
     136, 14, 0.5084747323642409, 0, 0.49187482607696537},
    {"Gender = male AND AgeGroup = 19-25 AND Dependents = 0",
     "Housing = own AND CreditAmountBand = small",
     110, 0, 0.49524211354499081, 0, 0.49524211354499081},
};
constexpr GoldenRule kGermanIpwGroupSp[] = {
    {"ForeignWorker = no",
     "Job = management AND CheckingBalance = >=200DM",
     905, 79, 0.31540760639131038, 0.26193608498455284, 0.29744046463007201},
    {"PersonalStatus = single",
     "Job = management AND InstallmentRate = medium",
     393, 85, 0.30977746854895305, 0.47260302299611762, 0.26329979635825196},
    {"PersonalStatus = married",
     "CheckingBalance = >=200DM AND Purpose = used_car",
     465, 0, 0.36931722098160313, 0, 0.36931722098160313},
    {"Gender = male AND AgeGroup = 19-25",
     "CreditHistory = ok AND Housing = own",
     137, 0, 0.53272858323575734, 0, 0.53272858323575734},
    {"PersonalStatus = single AND ForeignWorker = no",
     "Job = management AND Housing = own",
     364, 79, 0.36100975960527049, 0.67536369957730202, 0.27317351873162743},
    {"PersonalStatus = divorced AND Dependents = 0",
     "Housing = own AND InstallmentRate = medium",
     115, 0, 0.3973878357174484, 0, 0.3973878357174484},
    {"Gender = male AND AgeGroup = 19-25 AND ForeignWorker = no",
     "CreditHistory = ok AND Housing = own",
     123, 0, 0.53441322046563022, 0, 0.53441322046563022},
    {"Gender = male AND AgeGroup = 19-25 AND Dependents = 0",
     "Housing = own AND CreditAmountBand = small",
     110, 0, 0.49524211354499081, 0, 0.49524211354499081},
};
constexpr GoldenRule kStackOverflowRegressionNoFairness[] = {
    {"SexualOrientation = straight",
     "Education = phd AND UndergradMajor = cs",
     34127, 7810, 26083.423306884069, 12941.057780191208, 28216.327324071495},
    {"SexualOrientation = other",
     "Education = phd AND UndergradMajor = cs",
     3873, 248, 32752.017019585641, 0, 33696.702575605916},
    {"AgeGroup = 18-24 AND GdpGroup = high",
     "Education = phd AND UndergradMajor = cs",
     6130, 0, 36622.110514346001, 0, 36622.110514346001},
    {"AgeGroup = 25-34 AND Dependents = yes",
     "Education = phd AND Role = frontend",
     5358, 1141, 34849.247333059371, 0, 36945.391939445137},
    {"GdpGroup = high AND ParentsEducation = primary",
     "Education = phd AND UndergradMajor = cs",
     5993, 0, 34250.425001431307, 0, 34250.425001431307},
    {"Gender = male AND AgeGroup = 18-24",
     "Education = phd AND UndergradMajor = cs",
     4955, 1033, 35450.604252962992, 0, 38113.172381882985},
    {"GdpGroup = high AND ParentsEducation = secondary",
     "Education = phd AND UndergradMajor = cs",
     13452, 0, 30278.562776594081, 0, 30278.562776594081},
    {"Ethnicity = white AND AgeGroup = 18-24",
     "Education = phd AND UndergradMajor = cs",
     4217, 903, 35583.686879073262, 10391.66104322868, 40418.578843641604},
    {"GdpGroup = high AND Student = yes",
     "Education = phd AND UndergradMajor = cs",
     4798, 0, 33581.571578984673, 0, 33581.571578984673},
    {"ParentsEducation = primary AND SexualOrientation = straight",
     "Education = phd AND UndergradMajor = cs",
     6747, 1495, 32797.343834031533, 0, 34301.503441460627},
    {"AgeGroup = 18-24 AND SexualOrientation = straight",
     "Role = manager AND UndergradMajor = cs",
     6925, 1587, 33668.327878267766, 8832.1168519910389, 23402.628561448946},
};
constexpr GoldenRule kStackOverflowRegressionGroupSp[] = {
    {"SexualOrientation = straight",
     "Role = manager AND HoursComputer = >12",
     34127, 7810, 7407.1569387952131, 6532.3991269986145, 6991.9155395910038},
    {"AgeGroup = 45+",
     "Education = phd AND Role = manager",
     5590, 1169, 18856.464742913249, 19399.18752561654, 18726.180976709369},
    {"YearsCoding = 0-2",
     "Role = devops AND LanguagesCount = 6+",
     7177, 1527, 16594.300227751311, 12756.31215231135, 11503.886135506793},
    {"Ethnicity = white AND Dependents = yes",
     "Role = manager AND HoursComputer = >12",
     8122, 1734, 16529.752222706687, 8730.1699350577564, 8416.4188568209865},
    {"GdpGroup = high AND YearsCoding = 3-5",
     "Education = phd AND UndergradMajor = cs",
     7791, 0, 29999.674386586383, 0, 29999.674386586383},
    {"YearsCoding = 6-8 AND ParentsEducation = secondary",
     "Role = devops AND HoursComputer = >12",
     4029, 879, 14213.305495593628, 8067.6442894080574, 4768.0215567406776},
    {"AgeGroup = 45+ AND Student = no",
     "Education = phd AND Role = manager",
     5465, 1144, 18836.153568168185, 19381.889560370702, 18711.673175647462},
    {"SexualOrientation = other",
     "Education = bachelors AND HoursComputer = >12",
     3873, 248, 6719.606096406862, 7476.3547169244957, 6750.5035135536},
    {"AgeGroup = 45+ AND SexualOrientation = straight",
     "Education = phd AND Role = manager",
     5001, 1132, 18142.868922471946, 19173.237738049687, 17939.063566899866},
    {"Ethnicity = white AND GdpGroup = low",
     "Education = phd AND UndergradMajor = cs",
     4437, 4437, 13226.89191758215, 13226.89191758215, 0},
};
constexpr GoldenRule kStackOverflowStratifiedNoFairness[] = {
    {"SexualOrientation = straight",
     "Education = phd AND UndergradMajor = cs",
     34127, 7810, 26193.638771231104, 12788.565871751167, 28953.259960301264},
    {"SexualOrientation = other",
     "Education = phd AND UndergradMajor = cs",
     3873, 248, 31640.19301083047, 0, 31834.50394231463},
    {"AgeGroup = 25-34 AND Dependents = yes",
     "Education = phd AND Role = frontend",
     5358, 1141, 39638.909847352297, 0, 40028.725870445523},
    {"AgeGroup = 18-24 AND GdpGroup = high",
     "Education = phd AND UndergradMajor = cs",
     6130, 0, 37246.458212835198, 0, 37246.458212835198},
    {"AgeGroup = 18-24 AND SexualOrientation = straight",
     "Role = manager AND UndergradMajor = cs",
     6925, 1587, 36104.893216636498, 3436.5924231699455, 25444.047839444367},
    {"GdpGroup = high",
     "Education = phd AND UndergradMajor = cs",
     29942, 0, 29328.585600516701, 0, 29328.585600516701},
    {"Ethnicity = white AND AgeGroup = 18-24",
     "Education = phd AND UndergradMajor = cs",
     4217, 903, 36609.166488526673, 8997.2897593209364, 39942.449552583188},
    {"GdpGroup = high AND Student = yes",
     "Education = phd AND UndergradMajor = cs",
     4798, 0, 34466.919225215628, 0, 34466.919225215628},
    {"AgeGroup = 18-24 AND YearsCoding = 0-2",
     "Education = phd AND UndergradMajor = cs",
     4240, 911, 35240.443421937729, 5632.8116380260126, 38932.289222720814},
    {"AgeGroup = 18-24 AND Student = yes",
     "Education = phd AND UndergradMajor = cs",
     3827, 839, 34729.914526469285, 0, 37674.924754661944},
    {"YearsCoding = 9+ AND ParentsEducation = secondary",
     "Education = phd AND Role = data_scientist",
     5327, 1145, 31422.53732569675, 16176.082802694007, 32780.098344868231},
    {"ParentsEducation = primary AND SexualOrientation = straight",
     "Education = phd AND CompanySize = large",
     6747, 1495, 31295.943706713828, 0, 31295.943706713828},
    {"AgeGroup = 18-24",
     "Education = phd AND UndergradMajor = cs",
     7764, 1634, 34553.244285376997, 7967.4990850661334, 37246.458212835198},
};
constexpr GoldenRule kStackOverflowStratifiedGroupSp[] = {
    {"SexualOrientation = straight",
     "Role = manager AND HoursComputer = >12",
     34127, 7810, 8442.338731313368, 6774.0758065535165, 8593.8606084379262},
    {"SexualOrientation = other",
     "Role = data_scientist AND LanguagesCount = 3-5",
     3873, 248, 13401.182679420941, 12242.049550941627, 11133.173098062762},
    {"Student = yes",
     "Education = phd AND CompanySize = large",
     6149, 1351, 18012.061200584987, 18633.615948345971, 17971.377617095175},
    {"ParentsEducation = primary AND Student = no",
     "Role = data_scientist AND HoursComputer = >12",
     6299, 1302, 17289.659760816885, 17547.390432742341, 15746.648747346564},
    {"Ethnicity = white AND Dependents = yes",
     "Role = manager AND HoursComputer = >12",
     8122, 1734, 15866.592013403791, 10795.676763745028, 8826.4418556623423},
    {"AgeGroup = 18-24 AND GdpGroup = high",
     "Education = phd AND UndergradMajor = cs",
     6130, 0, 37246.458212835198, 0, 37246.458212835198},
    {"Ethnicity = white AND YearsCoding = 0-2",
     "Role = fullstack AND LanguagesCount = 6+",
     3901, 838, 18486.99254737459, 13957.538727544996, 7725.2028899699426},
};

// Four shards reassociate the real outcome's sums across shard merges,
// so its utilities differ from the one-shard run in the last digits.
constexpr GoldenRule kSyntheticRealSerial[] = {
    {"Group = protected",
     "M2 = level_2 AND M3 = level_2",
     39856, 39856, 48.642759677920331, 48.642759677920331, 0},
    {"Group = general",
     "M2 = level_2 AND M3 = level_2",
     160144, 0, 96.380351397725192, 0, 96.380351397725192},
    {"I1 = level_2",
     "M2 = level_2 AND M3 = level_2",
     77074, 13359, 108.59228225960781, 61.606741376530707, 116.62215869653363},
};
constexpr GoldenRule kSyntheticRealSharded[] = {
    {"Group = protected",
     "M2 = level_2 AND M3 = level_2",
     39856, 39856, 48.642759677920203, 48.642759677920203, 0},
    {"Group = general",
     "M2 = level_2 AND M3 = level_2",
     160144, 0, 96.38035139772559, 0, 96.38035139772559},
    {"I1 = level_2",
     "M2 = level_2 AND M3 = level_2",
     77074, 13359, 108.59228225960743, 61.606741376530621, 116.62215869653323},
};
// The integer outcome sums exactly, so both runs select the same values.
constexpr GoldenRule kSyntheticInteger[] = {
    {"Group = protected",
     "M2 = level_2 AND M3 = level_2",
     39856, 39856, 48.642334133444969, 48.642334133444969, 0},
    {"Group = general",
     "M2 = level_2 AND M3 = level_2",
     160144, 0, 96.380118172653994, 0, 96.380118172653994},
    {"I1 = level_2",
     "M2 = level_2 AND M3 = level_2",
     77074, 13359, 108.59330880404103, 61.595867942274424, 116.6252250076662},
};

const GermanData& German() {
  static const GermanData* data = new GermanData(MakeGerman().ValueOrDie());
  return *data;
}

const StackOverflowData& StackOverflow() {
  static const StackOverflowData* data =
      new StackOverflowData(MakeStackOverflow().ValueOrDie());
  return *data;
}

// The scale benchmark's synthetic table at 200K rows.
const SyntheticData& Synthetic(bool integer_outcome) {
  const auto make = [](bool integer) {
    SyntheticConfig config;
    config.num_rows = 200000;
    config.seed = 1;
    config.integer_outcome = integer;
    return new SyntheticData(MakeSynthetic(config).ValueOrDie());
  };
  static const SyntheticData* real = make(false);
  static const SyntheticData* integer = make(true);
  return integer_outcome ? *integer : *real;
}

enum class Dataset { kGerman, kStackOverflow, kSynthetic, kSyntheticInteger };

struct GoldenConfig {
  const char* name;
  Dataset dataset;
  CateMethod method;
  bool group_sp;
  size_t parallelism;  ///< num_threads == num_shards
  const GoldenRule* rules;
  size_t num_rules;
};

// gtest prints a failing parameter with this instead of its raw bytes.
void PrintTo(const GoldenConfig& config, std::ostream* os) {
  *os << config.name;
}

template <size_t N>
GoldenConfig Config(const char* name, Dataset dataset, CateMethod method,
                    bool group_sp, const GoldenRule (&rules)[N],
                    size_t parallelism = 1) {
  return {name, dataset, method, group_sp, parallelism, rules, N};
}

const GoldenConfig kConfigs[] = {
    Config("GermanRegressionNoFairness", Dataset::kGerman,
           CateMethod::kRegression, false, kGermanRegressionNoFairness),
    Config("GermanRegressionGroupSp", Dataset::kGerman,
           CateMethod::kRegression, true, kGermanRegressionGroupSp),
    Config("GermanStratifiedNoFairness", Dataset::kGerman,
           CateMethod::kStratified, false, kGermanStratifiedNoFairness),
    Config("GermanStratifiedGroupSp", Dataset::kGerman,
           CateMethod::kStratified, true, kGermanStratifiedGroupSp),
    Config("GermanIpwNoFairness", Dataset::kGerman, CateMethod::kIpw, false,
           kGermanIpwNoFairness),
    Config("GermanIpwGroupSp", Dataset::kGerman, CateMethod::kIpw, true,
           kGermanIpwGroupSp),
    Config("StackOverflowRegressionNoFairness", Dataset::kStackOverflow,
           CateMethod::kRegression, false,
           kStackOverflowRegressionNoFairness),
    Config("StackOverflowRegressionGroupSp", Dataset::kStackOverflow,
           CateMethod::kRegression, true, kStackOverflowRegressionGroupSp),
    Config("StackOverflowStratifiedNoFairness", Dataset::kStackOverflow,
           CateMethod::kStratified, false,
           kStackOverflowStratifiedNoFairness),
    Config("StackOverflowStratifiedGroupSp", Dataset::kStackOverflow,
           CateMethod::kStratified, true, kStackOverflowStratifiedGroupSp),
    Config("SyntheticRealGroupSpSerial", Dataset::kSynthetic,
           CateMethod::kRegression, true, kSyntheticRealSerial),
    Config("SyntheticRealGroupSpSharded", Dataset::kSynthetic,
           CateMethod::kRegression, true, kSyntheticRealSharded, 4),
    Config("SyntheticIntegerGroupSpSerial", Dataset::kSyntheticInteger,
           CateMethod::kRegression, true, kSyntheticInteger),
    Config("SyntheticIntegerGroupSpSharded", Dataset::kSyntheticInteger,
           CateMethod::kRegression, true, kSyntheticInteger, 4),
};

FairCapOptions OptionsFor(const GoldenConfig& config) {
  FairCapOptions options;
  options.num_threads = config.parallelism;
  options.num_shards = config.parallelism;
  options.cate.method = config.method;
  if (config.dataset == Dataset::kStackOverflow) {
    // Table-4 options, as in bench_table4_so.
    options.apriori.min_support_fraction = 0.1;
    options.apriori.max_pattern_length = 2;
    options.lattice.max_predicates = 2;
    options.cate.min_group_size = 30;
  }
  if (config.group_sp) {
    double threshold = 0.1;  // german: the outcome is a probability
    if (config.dataset == Dataset::kStackOverflow) threshold = 10000.0;
    if (config.dataset == Dataset::kSynthetic ||
        config.dataset == Dataset::kSyntheticInteger) {
      threshold = 60.0;  // the scale benchmark's setting
    }
    options.fairness = FairnessConstraint::GroupSP(threshold);
  }
  return options;
}

constexpr double kUtilityTolerance = 1e-9;  // relative

void ExpectUtility(double got, double want, const std::string& label) {
  EXPECT_LE(std::abs(got - want),
            kUtilityTolerance * std::max(std::abs(got), std::abs(want)))
      << label << ": got " << got << ", golden " << want;
}

class GoldenRulesetTest : public ::testing::TestWithParam<GoldenConfig> {};

TEST_P(GoldenRulesetTest, ProductionPipelineSelectsGoldenRuleset) {
  const GoldenConfig& config = GetParam();
  const DataFrame* df = &German().df;
  const CausalDag* dag = &German().dag;
  const Pattern* protected_pattern = &German().protected_pattern;
  if (config.dataset == Dataset::kStackOverflow) {
    df = &StackOverflow().df;
    dag = &StackOverflow().dag;
    protected_pattern = &StackOverflow().protected_pattern;
  } else if (config.dataset != Dataset::kGerman) {
    const SyntheticData& data =
        Synthetic(config.dataset == Dataset::kSyntheticInteger);
    df = &data.df;
    dag = &data.dag;
    protected_pattern = &data.protected_pattern;
  }
  const auto solver =
      FairCap::Create(df, dag, *protected_pattern, OptionsFor(config));
  ASSERT_TRUE(solver.ok()) << solver.status().ToString();
  const obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const uint64_t split_before =
      registry.CounterValue("estimation.split_from_cells");
  const uint64_t groups_before =
      registry.CounterValue("estimation.groups_from_cells");
  const auto result = solver->Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  if (config.dataset == Dataset::kSynthetic ||
      config.dataset == Dataset::kSyntheticInteger) {
    // The synthetic runs pin the cell shortcuts, so they must take them.
    EXPECT_GT(registry.CounterValue("estimation.split_from_cells"),
              split_before);
    EXPECT_GT(registry.CounterValue("estimation.groups_from_cells"),
              groups_before);
  }
  ASSERT_EQ(result->rules.size(), config.num_rules);
  for (size_t i = 0; i < config.num_rules; ++i) {
    const PrescriptionRule& rule = result->rules[i];
    const GoldenRule& want = config.rules[i];
    const std::string label = "rule " + std::to_string(i);
    EXPECT_EQ(rule.grouping.ToString(df->schema()), want.grouping) << label;
    EXPECT_EQ(rule.intervention.ToString(df->schema()), want.intervention)
        << label;
    EXPECT_EQ(rule.support, want.support) << label;
    EXPECT_EQ(rule.support_protected, want.support_protected) << label;
    ExpectUtility(rule.utility, want.utility, label + " utility");
    ExpectUtility(rule.utility_protected, want.utility_protected,
                  label + " utility_protected");
    ExpectUtility(rule.utility_nonprotected, want.utility_nonprotected,
                  label + " utility_nonprotected");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Golden, GoldenRulesetTest, ::testing::ValuesIn(kConfigs),
    [](const ::testing::TestParamInfo<GoldenConfig>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace faircap
