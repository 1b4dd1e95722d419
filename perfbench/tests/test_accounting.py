"""Served-versus-simulated accounting of differential campaigns."""

from pb.accounting import (
    differential_accounting,
    is_served,
    record_counts,
    simulated_instructions,
)


def trial(instructions, cycles, first, final=3000, restore_cycle=0,
          restore_committed=0):
    return {"instructions": instructions, "cycles": cycles,
            "first_strike": first, "final_cycle": final,
            "restore_cycle": restore_cycle,
            "restore_committed": restore_committed}


def test_never_struck_and_late_strikes_are_served():
    assert is_served(None, 3000)
    assert is_served(3000, 3000)
    assert is_served(10_000, 3000)
    assert not is_served(2999, 3000)


def test_served_trials_count_no_simulated_work():
    acct = differential_accounting([trial(6000, 3000, None),
                                    trial(6000, 3000, 5000)])
    assert acct == {"served_trials": 2, "replayed_trials": 0,
                    "served_instr": 12000, "replayed_instr": 0,
                    "replayed_cycles": 0}


def test_replays_count_only_work_after_the_restore_point():
    acct = differential_accounting([
        trial(6100, 3200, first=2500, restore_cycle=2048,
              restore_committed=4000),
        trial(6000, 3000, first=None),
    ])
    assert acct["replayed_trials"] == 1
    assert acct["served_trials"] == 1
    assert acct["replayed_instr"] == 2100
    assert acct["replayed_cycles"] == 3200 - 2048
    assert acct["served_instr"] == 6000


def test_a_replay_from_epoch_zero_counts_the_whole_run():
    acct = differential_accounting([trial(6000, 3100, first=10)])
    assert acct["replayed_instr"] == 6000
    assert acct["replayed_cycles"] == 3100


def test_simulated_instructions_add_each_prefix_once():
    acct = differential_accounting([
        trial(6000, 3000, first=None),
        trial(6000, 3000, first=1500, restore_cycle=1024,
              restore_committed=2000),
    ])
    # a prefix of 6000 instructions, then one 4000-instruction replay;
    # the served trial's 6000 instructions were never stepped again
    assert simulated_instructions(6000, acct) == 10000


def test_record_counts_of_fully_simulated_trials():
    records = [
        {"outcome": "recovered", "cycles": 3000, "instructions": 6000,
         "strikes": 2},
        {"outcome": "sdc", "cycles": 3100, "instructions": 6000,
         "strikes": 1},
        {"outcome": "hang", "cycles": 20000, "instructions": 4100,
         "strikes": 0},
    ]
    work, faults = record_counts(records)
    assert work == {"runs": 3, "cycles": 26100, "instructions": 16100}
    assert faults == {"strikes": 3, "recovered_trials": 1,
                      "sdc_trials": 1, "due_trials": 0, "hang_trials": 1}
