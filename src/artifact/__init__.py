"""Automata networks: dynamics, simulation, glueing and gadget compilers.

Every top-level function and class of the package is called from
somewhere else in the package, except the public API below, which
only users, the tests and the benchmark call:

    circuit: decode_config double_rail encode_config gmon_to_gmon2
    circuit: nor_realizers synchronize
    core: attractors interaction_graph
    csan: build_interval build_minmax build_reaction_diffusion
    csan: build_rule90_ring build_threshold csan_in_family csan_step
    csan: family_spec
    gadget: certificate_to_json
    glue: check_pseudo_orbit dowel_to_json glue_pseudo_orbits
    gol: build_clock build_wire clock_initial nor_center_nodes wire_signal
    problems: gated_product_network instance_to_json pred_to_reach
    problems: product_network reach_easy_answer reach_easy_network
    problems: reach_to_pred reduce_pred_via_simulation
"""

__version__ = "0.1.0"
