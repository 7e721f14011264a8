# Runs the checked-in scenario matrix through scenario_runner and gates
# on the report JSON — the same artifact CI uploads. After a few
# user-error probes, two legs:
#
#   green  the full scenarios/ directory must pass wholesale, with the
#          coverage the harness promises (>= 5 scenarios, >= 25 strategy
#          runs, >= 4 invariant kinds actually evaluated),
#   red    re-running with an impossible balance bound injected via
#          --override must exit 1 with a failing verdict — proof the
#          gate trips when a threshold tightens past reality, not only
#          that it stays green.
#
# Usage:
#   cmake -DRUNNER=<scenario_runner> -DSCENARIOS=<dir> -DWORKDIR=<scratch>
#         -P scenario_matrix.cmake

if(NOT DEFINED RUNNER OR NOT DEFINED SCENARIOS OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR
    "scenario_matrix.cmake needs -DRUNNER=..., -DSCENARIOS=... and "
    "-DWORKDIR=...")
endif()
if(CMAKE_VERSION VERSION_LESS 3.19)
  message(FATAL_ERROR "scenario_matrix.cmake needs cmake >= 3.19")
endif()
file(MAKE_DIRECTORY "${WORKDIR}")

# --- user errors --------------------------------------------------------

# Bad input fails with a message naming the problem, never as an
# internal check (no "check failed", no source path), and before any
# scenario runs.
function(expect_user_error expect_regex)
  execute_process(
    COMMAND ${RUNNER} ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "scenario_runner ${ARGN} should fail")
  endif()
  if(NOT err MATCHES "${expect_regex}")
    message(FATAL_ERROR
      "scenario_runner ${ARGN}: expected stderr matching "
      "'${expect_regex}', got:\n${err}")
  endif()
  if(err MATCHES "check failed" OR err MATCHES "\\.cpp:")
    message(FATAL_ERROR
      "scenario_runner ${ARGN}: user error reported as an internal "
      "check:\n${err}")
  endif()
endfunction()

expect_user_error("no such file or directory: /nonexistent/x.scn"
  /nonexistent/x.scn)
set(empty_dir "${WORKDIR}/no_scenarios")
file(MAKE_DIRECTORY "${empty_dir}")
expect_user_error("directory has no .scn files" ${empty_dir})
expect_user_error("cannot open --out file"
  --out /nonexistent/dir/report.json ${SCENARIOS})
expect_user_error("--scale-mult must be a positive number, got 'abc'"
  --scale-mult abc ${SCENARIOS})

# --- green leg ----------------------------------------------------------

set(report "${WORKDIR}/scenario_report.json")
file(REMOVE "${report}")
execute_process(
  COMMAND ${RUNNER} --out ${report} ${SCENARIOS}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "scenario matrix failed (rc=${rc}):\n${out}\n${err}")
endif()
if(NOT EXISTS "${report}")
  message(FATAL_ERROR "scenario runner wrote no report at ${report}")
endif()

file(READ "${report}" json)
string(JSON schema ERROR_VARIABLE jerr GET "${json}" schema_version)
if(NOT jerr STREQUAL "NOTFOUND" OR NOT schema EQUAL 1)
  message(FATAL_ERROR
    "unexpected report schema (version '${schema}', error '${jerr}')")
endif()
string(JSON pass GET "${json}" pass)
string(JSON n_scenarios GET "${json}" totals scenarios)
string(JSON n_runs GET "${json}" totals strategy_runs)
string(JSON n_invariants GET "${json}" totals invariants)
string(JSON n_violations GET "${json}" totals violations)
string(JSON kinds_json GET "${json}" totals invariant_kinds)
string(JSON n_kinds LENGTH "${kinds_json}")

message(STATUS
  "scenario matrix: ${n_scenarios} scenarios, ${n_runs} runs, "
  "${n_invariants} invariants (${n_kinds} kinds), "
  "${n_violations} violations")

# string(JSON) renders JSON booleans as ON/OFF.
if(NOT pass STREQUAL "ON")
  message(FATAL_ERROR
    "scenario matrix verdict is FAIL; runner output:\n${out}\n${err}")
endif()
if(n_scenarios LESS 5)
  message(FATAL_ERROR "expected >= 5 scenarios, got ${n_scenarios}")
endif()
if(n_runs LESS 25)
  message(FATAL_ERROR "expected >= 25 strategy runs, got ${n_runs}")
endif()
if(n_kinds LESS 4)
  message(FATAL_ERROR
    "expected >= 4 invariant kinds, got ${n_kinds}: ${kinds_json}")
endif()

# --- red leg ------------------------------------------------------------

set(red_report "${WORKDIR}/scenario_report_red.json")
file(REMOVE "${red_report}")
execute_process(
  COMMAND ${RUNNER} --out ${red_report}
    --override invariant.balance_max=1.000001 ${SCENARIOS}
  RESULT_VARIABLE red_rc
  OUTPUT_VARIABLE red_out
  ERROR_VARIABLE red_err)
if(red_rc EQUAL 0)
  message(FATAL_ERROR
    "an impossible balance bound still passed — the invariant gate is "
    "not engaging:\n${red_out}\n${red_err}")
endif()
if(NOT EXISTS "${red_report}")
  message(FATAL_ERROR
    "red leg wrote no report (rc=${red_rc}):\n${red_out}\n${red_err}")
endif()
file(READ "${red_report}" red_json)
string(JSON red_pass GET "${red_json}" pass)
string(JSON red_violations GET "${red_json}" totals violations)
if(NOT red_pass STREQUAL "OFF" OR red_violations EQUAL 0)
  message(FATAL_ERROR
    "red leg report is not failing (pass='${red_pass}', "
    "violations=${red_violations})")
endif()

message(STATUS
  "scenario matrix passed (red leg tripped ${red_violations} violations)")
